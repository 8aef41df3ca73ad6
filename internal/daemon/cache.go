package daemon

import (
	"container/list"
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"soi/internal/api"
	"soi/internal/telemetry"
	"soi/internal/trace"
)

// Answer is one encoded /v1 response: everything needed to replay it to a
// later client without recomputing or re-encoding. Partial mirrors the
// body's annotation for the request log and trace events, so neither
// re-parses the bytes. Answers are immutable once built, so a cache hit
// hands Body to the response writer without copying.
type Answer struct {
	Status  int
	Body    []byte
	Partial api.Partial
}

// Encode marshals body v once into its Answer. The status follows v's
// partial flag (206 degraded, 200 otherwise). A body that cannot be encoded
// is a 500 internal error, never a truncated 2xx.
func Encode(v any) (*Answer, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, &api.Error{Status: http.StatusInternalServerError, Code: api.CodeInternal, Msg: err.Error()}
	}
	p := api.AnnotationOf(v)
	return &Answer{Status: api.StatusOf(p.Degraded), Body: append(body, '\n'), Partial: p}, nil
}

// Write sends the answer, marking it X-Cache: hit or miss.
func (a *Answer) Write(w http.ResponseWriter, hit bool) {
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	api.WriteBody(w, a.Status, a.Body)
}

// Record is the request-log record of a request answered with a; cache is
// its cache state ("hit", "miss", "shared", or "" when it bypassed the
// cache).
func (a *Answer) Record(cache string) trace.RequestRecord {
	p := a.Partial
	rec := trace.RequestRecord{Status: a.Status, Cache: cache,
		Partial: p.Degraded, Achieved: p.Achieved, Requested: p.Requested, ErrorBound: p.ErrorBound}
	if sc := p.Scatter; sc != nil {
		rec.ShardsOK, rec.ShardsTotal, rec.FailedShards = sc.ShardsOK, sc.ShardsTotal, sc.FailedShards
	}
	return rec
}

// Cache is the response half of the /v1 pipeline (Envelope):
//
//	canonical key → LRU lookup → singleflight → compute → encode once → cache a 200
//
// The LRU is bounded in entries; only a complete 200 is cached, because a
// 206 reflects one request's budget or one moment's shard health, and an
// error is not an answer. A complete 200 does not depend on the budget, so
// the LRU key leaves the budget out; the singleflight key keeps it, so that
// a request never inherits a 206 truncated by another request's budget. A
// disabled cache hands out empty keys, and an empty key bypasses the lookup
// and the singleflight alike. Metrics go to
// "<prefix>.cache.{hits,misses,entries}" and "<prefix>.singleflight.shared".
type Cache struct {
	max int

	mu    sync.Mutex
	ll    *list.List // front = most recently used; values are *entry
	items map[string]*list.Element

	fmu     sync.Mutex
	flights map[flightKey]*flight

	hits    *telemetry.Counter
	misses  *telemetry.Counter
	entries *telemetry.Gauge
	shared  *telemetry.Counter
}

type entry struct {
	key string
	ans *Answer
}

// flightKey names one in-progress compute: the LRU key and the budget.
type flightKey struct {
	key    string
	budget time.Duration
}

// flight is one in-progress compute that identical requests wait on.
type flight struct {
	done chan struct{}
	ans  *Answer
	err  error
}

// DefaultCacheSize is the entry bound of both daemons' response caches.
const DefaultCacheSize = 4096

// NewCache returns a cache of at most size entries; a size below 1
// disables caching.
func NewCache(size int, tel *telemetry.Registry, prefix string) *Cache {
	return &Cache{
		max:     size,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[flightKey]*flight),
		hits:    tel.Counter(prefix + ".cache.hits"),
		misses:  tel.Counter(prefix + ".cache.misses"),
		entries: tel.Gauge(prefix + ".cache.entries"),
		shared:  tel.Counter(prefix + ".singleflight.shared"),
	}
}

// Key canonicalizes a request into a cache key: endpoint name, path (which
// carries {node}), the query parameters other than budget sorted by name
// and value, and suffix, which names the artifacts the answer was computed from
// so that entries computed from other artifacts are never replayed. It
// returns "" when the cache is disabled.
func (c *Cache) Key(name, path string, q url.Values, suffix string) string {
	if c.max <= 0 {
		return ""
	}
	keys := make([]string, 0, len(q))
	for k := range q {
		if k != "budget" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(path)
	b.WriteByte('?')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte('&')
		}
		vs := q[k]
		if len(vs) > 1 {
			vs = append([]string(nil), vs...)
			sort.Strings(vs)
		}
		for j, v := range vs {
			if j > 0 {
				b.WriteByte('&')
			}
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(v)
		}
	}
	b.WriteByte('#')
	b.WriteString(suffix)
	return b.String()
}

// lookup looks key up under a "cache.lookup" span. An empty key misses
// without a span or a count.
func (c *Cache) lookup(ctx context.Context, key string) (*Answer, bool) {
	if key == "" {
		return nil, false
	}
	span := trace.Child(ctx, "cache.lookup")
	ans, hit := c.get(key)
	span.SetAttrs(trace.Bool("hit", hit))
	span.End()
	return ans, hit
}

func (c *Cache) get(key string) (*Answer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*entry).ans, true
}

// do computes key's answer once among concurrent callers under the same
// budget, under a "singleflight.do" span, and caches it when it is a
// complete 200. Followers wait for the leader's answer but give up when
// their own ctx expires. state is the request-log cache state: "miss" for
// the leader, "shared" for a follower, and "" for an empty key, which just
// runs compute.
// (Hand-rolled because the module is dependency-free; the contract matches
// golang.org/x/sync/singleflight.Do.)
func (c *Cache) do(ctx context.Context, key string, budget time.Duration, compute func() (*Answer, error)) (ans *Answer, state string, err error) {
	if key == "" {
		ans, err = compute()
		return ans, "", err
	}
	span := trace.Child(ctx, "singleflight.do")
	defer func() {
		span.SetAttrs(trace.Bool("shared", state == "shared"))
		span.End()
	}()
	fk := flightKey{key, budget}
	c.fmu.Lock()
	if f, ok := c.flights[fk]; ok {
		c.fmu.Unlock()
		c.shared.Inc()
		select {
		case <-f.done:
			return f.ans, "shared", f.err
		case <-ctx.Done():
			return nil, "shared", ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[fk] = f
	c.fmu.Unlock()

	f.ans, f.err = compute()
	if f.err == nil && f.ans.Status == http.StatusOK {
		c.put(key, f.ans)
	}

	c.fmu.Lock()
	delete(c.flights, fk)
	c.fmu.Unlock()
	close(f.done)
	return f.ans, "miss", f.err
}

func (c *Cache) put(key string, ans *Answer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).ans = ans
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, ans: ans})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry).key)
	}
	c.entries.Set(int64(c.ll.Len()))
}

// Len returns the number of cached answers.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Clear empties the cache (benchmarks measuring the cold path).
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.entries.Set(0)
}
