package router

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soi/internal/api"
	"soi/internal/trace"
)

// countingShard is a fake soid that counts the /v1 requests reaching it.
// /readyz reports a settable index fingerprint; every /v1 path answers with
// a settable status and body, after waiting on hold when it is set.
type countingShard struct {
	*httptest.Server
	calls  atomic.Int64
	fp     atomic.Value // string
	status atomic.Int64
	body   atomic.Value // string
	hold   chan struct{}
}

func newCountingShard(t *testing.T, body string) *countingShard {
	t.Helper()
	cs := &countingShard{}
	cs.fp.Store("")
	cs.status.Store(http.StatusOK)
	cs.body.Store(body)
	cs.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/readyz" {
			api.WriteJSON(w, http.StatusOK, api.Ready{Ready: true, IndexFingerprint: cs.fp.Load().(string)})
			return
		}
		cs.calls.Add(1)
		if cs.hold != nil {
			<-cs.hold
		}
		api.WriteBody(w, int(cs.status.Load()), []byte(cs.body.Load().(string)+"\n"))
	}))
	t.Cleanup(cs.Close)
	return cs
}

// noCut clears the test topology's cut edges, whose bound would turn every
// merged spread into a 206.
func noCut(c *Config) { c.Topology.CutEdges, c.Topology.CutBound, c.Topology.CutProb = 0, 0, 0 }

// cached turns the gateway cache on by configuring a probe interval. The
// test routers never call StartProbing: a test that needs a probe runs
// probeOnce by hand.
func cached(c *Config) { c.ProbeInterval = time.Second }

// cachedNoCut is cached and noCut.
func cachedNoCut(c *Config) { cached(c); noCut(c) }

// gwGet sends url to the gateway and returns the recorder.
func gwGet(rt *Router, url string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

// TestGatewayCacheRepeatHasNoLeg: a repeated relayed or scattered query is
// answered from the gateway's cache with the first answer's bytes, and no
// shard sees it.
func TestGatewayCacheRepeatHasNoLeg(t *testing.T) {
	s0 := newCountingShard(t, `{"spread":1.5}`)
	s1 := newCountingShard(t, `{"spread":2.5}`)
	r := newTestRouter(t, cachedNoCut, []string{s0.URL}, []string{s1.URL})

	for _, tc := range []struct {
		url  string
		legs int64
	}{
		{"/v1/sphere/1", 1},
		{"/v1/spread?seeds=0,10", 2},
	} {
		before := s0.calls.Load() + s1.calls.Load()
		first := gwGet(r, tc.url)
		if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
			t.Fatalf("%s: first answer %d X-Cache %q, want 200 miss", tc.url, first.Code, first.Header().Get("X-Cache"))
		}
		second := gwGet(r, tc.url)
		if second.Code != http.StatusOK || second.Header().Get("X-Cache") != "hit" {
			t.Fatalf("%s: repeat %d X-Cache %q, want 200 hit", tc.url, second.Code, second.Header().Get("X-Cache"))
		}
		if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Fatalf("%s: hit replayed %q, first answer was %q", tc.url, second.Body, first.Body)
		}
		if legs := s0.calls.Load() + s1.calls.Load() - before; legs != tc.legs {
			t.Fatalf("%s: %d legs for two identical queries, want %d", tc.url, legs, tc.legs)
		}
	}
	// A relayed 200 is the leg's bytes.
	if got := gwGet(r, "/v1/sphere/1").Body.String(); got != `{"spread":1.5}`+"\n" {
		t.Fatalf("relayed body %q, want the shard's bytes", got)
	}
	if hits := r.cfg.Telemetry.Counter("router.cache.hits").Value(); hits != 3 {
		t.Fatalf("router.cache.hits = %d, want 3", hits)
	}
}

// TestGatewayCacheOnlyComplete200: a 206, a relayed 4xx and a 503 reach the
// shard every time.
func TestGatewayCacheOnlyComplete200(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		body   string
	}{
		{"206", http.StatusPartialContent, `{"node":1,"partial":true,"achieved":3,"requested":10,"error_bound":0.2}`},
		{"4xx", http.StatusNotFound, `{"error":{"code":"not_found","message":"unknown node 1"}}`},
		{"503", http.StatusServiceUnavailable, `{"error":{"code":"overloaded","message":"queue full"}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s0 := newCountingShard(t, tc.body)
			s0.status.Store(int64(tc.status))
			s1 := newCountingShard(t, `{}`)
			r := newTestRouter(t, func(c *Config) { cached(c); c.MaxRetries = -1 }, []string{s0.URL}, []string{s1.URL})
			for i := 1; i <= 2; i++ {
				rec := gwGet(r, "/v1/sphere/1")
				if rec.Code != tc.status || rec.Header().Get("X-Cache") == "hit" {
					t.Fatalf("request %d: %d X-Cache %q, want %d and no hit", i, rec.Code, rec.Header().Get("X-Cache"), tc.status)
				}
				if got := s0.calls.Load(); got != int64(i) {
					t.Fatalf("request %d: shard saw %d requests, want %d", i, got, i)
				}
			}
			if n := r.env.Cache.Len(); n != 0 {
				t.Fatalf("cache holds %d entries, want 0", n)
			}
		})
	}
}

// TestGatewayCacheKeyFollowsIndexFingerprint: once a probe reports a new
// index fingerprint, the next repeat misses and reaches the shard.
func TestGatewayCacheKeyFollowsIndexFingerprint(t *testing.T) {
	s0 := newCountingShard(t, `{"node":1}`)
	s1 := newCountingShard(t, `{}`)
	s0.fp.Store("00000000000000aa")
	r := newTestRouter(t, cached, []string{s0.URL}, []string{s1.URL})
	probeAll := func() {
		for _, group := range r.shards {
			for _, rep := range group {
				r.probeOnce(rep, time.Second)
			}
		}
	}
	probeAll()
	if got := *r.keySuffix.Load(); got != "00000000000000aa;" {
		t.Fatalf("key suffix %q, want the probed fingerprints", got)
	}
	want := []string{"miss", "hit", "miss", "hit"}
	for i, cache := range want {
		if i == 2 {
			s0.fp.Store("00000000000000bb") // the shard restarted over other artifacts
			probeAll()
		}
		if got := gwGet(r, "/v1/sphere/1").Header().Get("X-Cache"); got != cache {
			t.Fatalf("request %d: X-Cache %q, want %q", i, got, cache)
		}
	}
	if got := s0.calls.Load(); got != 2 {
		t.Fatalf("shard saw %d requests, want 2 (one per fingerprint)", got)
	}
}

// TestGatewayCacheOffWithoutProbing: with probing disabled (a negative
// ProbeInterval) no probe could retire an entry computed from replaced
// artifacts, so every request goes to the shards and nothing is kept.
func TestGatewayCacheOffWithoutProbing(t *testing.T) {
	s0 := newCountingShard(t, `{"node":1}`)
	s1 := newCountingShard(t, `{}`)
	r := newTestRouter(t, func(c *Config) { c.ProbeInterval = -1 }, []string{s0.URL}, []string{s1.URL})
	for i := 1; i <= 3; i++ {
		if rec := gwGet(r, "/v1/sphere/1"); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
			t.Fatalf("request %d: %d X-Cache %q, want 200 miss", i, rec.Code, rec.Header().Get("X-Cache"))
		}
	}
	if got := s0.calls.Load(); got != 3 {
		t.Fatalf("shard saw %d requests, want 3", got)
	}
	if n := r.env.Cache.Len(); n != 0 {
		t.Fatalf("disabled cache holds %d entries", n)
	}
}

// TestGatewayCacheSingleflight: identical requests that arrive while the
// first is in flight share its one scatter.
func TestGatewayCacheSingleflight(t *testing.T) {
	s0 := newCountingShard(t, `{"spread":1}`)
	s1 := newCountingShard(t, `{"spread":2}`)
	s0.hold = make(chan struct{})
	logBuf := &bytes.Buffer{}
	r := newTestRouter(t, func(c *Config) {
		cachedNoCut(c)
		c.RequestLog = trace.NewRequestLog(logBuf)
	}, []string{s0.URL}, []string{s1.URL})

	const clients = 6
	var wg sync.WaitGroup
	codes := make(chan int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- gwGet(r, "/v1/spread?seeds=0,10").Code
		}()
	}
	shared := r.cfg.Telemetry.Counter("router.singleflight.shared")
	waitFor(t, "the followers to join the flight", func() bool { return shared.Value() == clients-1 })
	close(s0.hold)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("client got %d, want 200", code)
		}
	}
	if a, b := s0.calls.Load(), s1.calls.Load(); a != 1 || b != 1 {
		t.Fatalf("shards saw %d and %d legs for %d identical requests, want one scatter", a, b, clients)
	}
	if n := strings.Count(logBuf.String(), `"cache":"shared"`); n != clients-1 {
		t.Fatalf("%d request-log lines marked shared, want %d:\n%s", n, clients-1, logBuf.String())
	}
}

// TestGatewayCacheLeaderCancel: the client that leads a flight hanging up
// does not cut the shared scatter short; the followers still get the
// complete 200, and nothing is counted as degraded.
func TestGatewayCacheLeaderCancel(t *testing.T) {
	s0 := newCountingShard(t, `{"spread":1}`)
	s1 := newCountingShard(t, `{"spread":2}`)
	s0.hold = make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(s0.hold)
		}
	}
	defer release()
	r := newTestRouter(t, cachedNoCut, []string{s0.URL}, []string{s1.URL})
	const url = "/v1/spread?seeds=0,10"

	ctx, cancel := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil).WithContext(ctx))
	}()
	waitFor(t, "the leader's leg to reach shard 0", func() bool { return s0.calls.Load() == 1 })

	const followers = 3
	codes := make(chan int, followers)
	for i := 0; i < followers; i++ {
		go func() { codes <- gwGet(r, url).Code }()
	}
	shared := r.cfg.Telemetry.Counter("router.singleflight.shared")
	waitFor(t, "the followers to join the flight", func() bool { return shared.Value() == followers })

	cancel()
	select {
	case code := <-codes:
		t.Fatalf("a follower was answered %d once the leader's client hung up; the shared scatter was cut short", code)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	for i := 0; i < followers; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("follower got %d, want 200", code)
		}
	}
	<-leaderDone
	if n := r.cfg.Telemetry.Counter("router.degraded").Value(); n != 0 {
		t.Fatalf("router.degraded = %d, want 0", n)
	}
	if a, b := s0.calls.Load(), s1.calls.Load(); a != 1 || b != 1 {
		t.Fatalf("shards saw %d and %d legs, want one scatter", a, b)
	}
}

// TestGatewayCacheKeyIgnoresBudget: a complete 200 does not depend on the
// budget, so a repeat under another budget is a gateway hit with identical
// bytes and no shard leg.
func TestGatewayCacheKeyIgnoresBudget(t *testing.T) {
	s0 := newCountingShard(t, `{"spread":1.5}`)
	s1 := newCountingShard(t, `{"spread":2.5}`)
	r := newTestRouter(t, cachedNoCut, []string{s0.URL}, []string{s1.URL})
	first := gwGet(r, "/v1/spread?seeds=0,10&budget=20s")
	second := gwGet(r, "/v1/spread?seeds=0,10&budget=19s")
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first answer %d X-Cache %q, want 200 miss", first.Code, first.Header().Get("X-Cache"))
	}
	if second.Code != http.StatusOK || second.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat under another budget %d X-Cache %q, want 200 hit", second.Code, second.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("hit replayed %q, first answer was %q", second.Body, first.Body)
	}
	if legs := s0.calls.Load() + s1.calls.Load(); legs != 2 {
		t.Fatalf("%d legs for one scatter and a hit, want 2", legs)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGatewayRelayKeepsAnnotation: a relayed answer's bound reaches the
// gateway's request log, for a healthy sketch 200 and for a shard's 206.
func TestGatewayRelayKeepsAnnotation(t *testing.T) {
	logBuf := &bytes.Buffer{}
	rt := startGateway(t, func(c *Config) { cached(c); c.RequestLog = trace.NewRequestLog(logBuf) })
	rec := gwGet(rt, "/v1/sphere/4?estimator=sketch")
	var body api.Partial
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.ErrorBound <= 0 {
		t.Fatalf("sketch sphere: %d %s, want a 200 with an error bound", rec.Code, rec.Body)
	}
	if got := lastRecord(t, logBuf); got.ErrorBound != body.ErrorBound || got.Cache != "miss" {
		t.Fatalf("request log error_bound %v cache %q, want the body's %v and miss", got.ErrorBound, got.Cache, body.ErrorBound)
	}
	gwGet(rt, "/v1/sphere/4?estimator=sketch")
	if got := lastRecord(t, logBuf); got.ErrorBound != body.ErrorBound || got.Cache != "hit" {
		t.Fatalf("cache-hit log error_bound %v cache %q, want %v and hit", got.ErrorBound, got.Cache, body.ErrorBound)
	}

	s0 := newCountingShard(t, `{"node":1,"partial":true,"achieved":3,"requested":10,"error_bound":0.2}`)
	s0.status.Store(http.StatusPartialContent)
	s1 := newCountingShard(t, `{}`)
	partialLog := &bytes.Buffer{}
	r := newTestRouter(t, func(c *Config) { c.RequestLog = trace.NewRequestLog(partialLog) },
		[]string{s0.URL}, []string{s1.URL})
	if rec := gwGet(r, "/v1/sphere/1"); rec.Code != http.StatusPartialContent {
		t.Fatalf("relayed 206 answered %d", rec.Code)
	}
	got := lastRecord(t, partialLog)
	if !got.Partial || got.Status != http.StatusPartialContent || got.ErrorBound != 0.2 || got.Achieved != 3 || got.Requested != 10 {
		t.Fatalf("relayed 206 logged %+v, want partial, error_bound 0.2, achieved 3, requested 10", got)
	}
	if r.cfg.Telemetry.Counter("router.degraded").Value() != 1 {
		t.Fatalf("router.degraded = %d, want 1", r.cfg.Telemetry.Counter("router.degraded").Value())
	}
}

// lastRecord decodes the last line of a request log.
func lastRecord(t *testing.T, l *bytes.Buffer) trace.RequestRecord {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(l.String()), "\n")
	var rec trace.RequestRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("request log line %q: %v", lines[len(lines)-1], err)
	}
	return rec
}

// BenchmarkGatewayCacheHit measures an in-process soigw answering repeated
// queries from its cache: one relayed sphere and one two-shard spread.
func BenchmarkGatewayCacheHit(b *testing.B) {
	benchGateway(b, false)
}

// BenchmarkGatewayCacheMiss is BenchmarkGatewayCacheHit with the gateway's
// cache cleared before every request, so each request makes its legs to the
// httptest shards (which answer from their own caches).
func BenchmarkGatewayCacheMiss(b *testing.B) {
	benchGateway(b, true)
}

func benchGateway(b *testing.B, clear bool) {
	rt := startGateway(b, cached)
	for _, url := range []string{"/v1/sphere/4?estimator=sketch", "/v1/spread?seeds=4,9&estimator=sketch"} {
		name := strings.TrimPrefix(strings.SplitN(url, "?", 2)[0], "/v1/")
		name = strings.SplitN(name, "/", 2)[0]
		b.Run(name, func(b *testing.B) {
			if rec := gwGet(rt, url); rec.Code != http.StatusOK {
				b.Fatalf("warm-up %s: %d %s", url, rec.Code, rec.Body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if clear {
					rt.env.Cache.Clear()
				}
				if rec := gwGet(rt, url); rec.Code != http.StatusOK {
					b.Fatalf("%s: %d", url, rec.Code)
				}
			}
		})
	}
}
