package daemon

import (
	"context"
	"errors"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soi/internal/api"
	"soi/internal/telemetry"
)

func ok(body string) func() (*Answer, error) {
	return func() (*Answer, error) { return &Answer{Status: http.StatusOK, Body: []byte(body)}, nil }
}

// TestCacheKeyCanonical: parameter order and repeated values do not change
// the key; the path, a value and the suffix do.
func TestCacheKeyCanonical(t *testing.T) {
	c := NewCache(8, telemetry.New(), "t")
	key := func(path, raw, suffix string) string {
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		return c.Key("spread", path, q, suffix)
	}
	base := key("/v1/spread", "seeds=1,2&samples=10&x=b&x=a", "fp")
	if got := key("/v1/spread", "x=a&samples=10&x=b&seeds=1,2", "fp"); got != base {
		t.Fatalf("reordered query keyed %q, want %q", got, base)
	}
	for _, other := range []string{
		key("/v1/spread", "seeds=1,2&samples=11&x=b&x=a", "fp"),
		key("/v1/other", "seeds=1,2&samples=10&x=b&x=a", "fp"),
		key("/v1/spread", "seeds=1,2&samples=10&x=b&x=a", "fp2"),
	} {
		if other == base {
			t.Fatalf("distinct request shares key %q", base)
		}
	}
	q := url.Values{"x": {"b", "a"}}
	c.Key("spread", "/", q, "")
	if q["x"][0] != "b" {
		t.Fatal("Key reordered the caller's query values")
	}
	if got := NewCache(-1, nil, "t").Key("spread", "/", q, ""); got != "" {
		t.Fatalf("disabled cache keyed %q, want \"\"", got)
	}
}

// TestCacheLRUAndOnly200: a complete 200 is cached and evicted least
// recently used first; a 206 and an error are never cached.
func TestCacheLRUAndOnly200(t *testing.T) {
	tel := telemetry.New()
	c := NewCache(2, tel, "t")
	ctx := context.Background()
	for _, k := range []string{"a", "b"} {
		if _, _, err := c.do(ctx, k, 0, ok(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, hit := c.lookup(ctx, "a"); !hit { // a becomes most recent
		t.Fatal("a missed")
	}
	c.do(ctx, "c", 0, ok("c")) // evicts b
	if _, hit := c.lookup(ctx, "b"); hit {
		t.Fatal("b survived eviction")
	}
	if ans, hit := c.lookup(ctx, "a"); !hit || string(ans.Body) != "a" {
		t.Fatal("a was evicted or replayed wrong")
	}
	if c.Len() != 2 || tel.Gauge("t.cache.entries").Value() != 2 {
		t.Fatalf("len %d, entries gauge %d; want 2", c.Len(), tel.Gauge("t.cache.entries").Value())
	}

	c.do(ctx, "p", 0, func() (*Answer, error) { return &Answer{Status: http.StatusPartialContent}, nil })
	c.do(ctx, "e", 0, func() (*Answer, error) { return nil, errors.New("boom") })
	for _, k := range []string{"p", "e"} {
		if _, hit := c.lookup(ctx, k); hit {
			t.Fatalf("%s was cached", k)
		}
	}
	if _, hit := c.lookup(ctx, ""); hit {
		t.Fatal("the empty key hit")
	}
	if hits, misses := tel.Counter("t.cache.hits").Value(), tel.Counter("t.cache.misses").Value(); hits != 2 || misses != 3 {
		t.Fatalf("hits %d misses %d, want 2 and 3", hits, misses)
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatal("Clear left entries")
	}
}

// TestCacheSingleflight: concurrent callers of one key share the leader's
// compute; a follower whose ctx expires gives up without waiting for it.
func TestCacheSingleflight(t *testing.T) {
	tel := telemetry.New()
	c := NewCache(8, tel, "t")
	release := make(chan struct{})
	var computes atomic.Int64
	slow := func() (*Answer, error) {
		computes.Add(1)
		<-release
		return &Answer{Status: http.StatusOK, Body: []byte("x")}, nil
	}
	const callers = 5
	var wg sync.WaitGroup
	states := make(chan string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ans, state, err := c.do(context.Background(), "k", 0, slow)
			if err != nil || string(ans.Body) != "x" {
				t.Errorf("caller got %v, %v", ans, err)
			}
			states <- state
		}()
	}
	for tel.Counter("t.singleflight.shared").Value() < callers-1 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, state, err := c.do(ctx, "k", 0, slow); state != "shared" || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("impatient follower: state %q err %v, want shared and deadline exceeded", state, err)
	}
	close(release)
	wg.Wait()
	close(states)
	count := map[string]int{}
	for state := range states {
		count[state]++
	}
	if computes.Load() != 1 || count["miss"] != 1 || count["shared"] != callers-1 {
		t.Fatalf("%d computes, states %v; want 1 compute, 1 miss and %d shared", computes.Load(), count, callers-1)
	}
	if _, hit := c.lookup(context.Background(), "k"); !hit {
		t.Fatal("the leader's 200 was not cached")
	}
}

// TestEncodeAndRecord: Encode derives the status from the body's partial
// flag, and Record carries the annotation and scatter health into the
// request log.
func TestEncodeAndRecord(t *testing.T) {
	type body struct {
		N int `json:"n"`
		api.Partial
	}
	ans, err := Encode(body{N: 1, Partial: api.Partial{Degraded: true, Achieved: 3, Requested: 9, ErrorBound: 0.5,
		Scatter: &api.Scatter{ShardsOK: 1, ShardsTotal: 2, FailedShards: []int{1}}}})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Status != http.StatusPartialContent || ans.Body[len(ans.Body)-1] != '\n' {
		t.Fatalf("status %d body %q, want 206 and a trailing newline", ans.Status, ans.Body)
	}
	rec := ans.Record("miss")
	if !rec.Partial || rec.Achieved != 3 || rec.Requested != 9 || rec.ErrorBound != 0.5 ||
		rec.ShardsOK != 1 || rec.ShardsTotal != 2 || len(rec.FailedShards) != 1 || rec.Cache != "miss" {
		t.Fatalf("record %+v misses the annotation", rec)
	}
	if _, err := Encode(func() {}); err == nil {
		t.Fatal("Encode accepted an unencodable body")
	} else if ae := (*api.Error)(nil); !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError {
		t.Fatalf("Encode error %v, want a 500 envelope", err)
	}
}

// TestCacheFlightPerBudget: the LRU key leaves the budget out, since a
// complete 200 does not depend on it, but a request never joins a flight
// under another budget, whose 206 that budget would have truncated.
func TestCacheFlightPerBudget(t *testing.T) {
	c := NewCache(8, telemetry.New(), "t")
	key := func(raw string) string {
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		return c.Key("spread", "/v1/spread", q, "fp")
	}
	k := key("seeds=1&budget=1s")
	if k != key("seeds=1") || k != key("budget=5ms&seeds=1") {
		t.Fatalf("the budget changed the key %q", k)
	}
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.do(context.Background(), k, time.Millisecond, func() (*Answer, error) {
			close(started)
			<-release
			return &Answer{Status: http.StatusPartialContent, Body: []byte("truncated")}, nil
		})
	}()
	<-started
	ans, state, err := c.do(context.Background(), k, time.Second, ok("complete"))
	if err != nil || state != "miss" || string(ans.Body) != "complete" {
		t.Fatalf("request under another budget got %q (state %q, err %v), want its own complete answer", ans.Body, state, err)
	}
	close(release)
	<-done
}
