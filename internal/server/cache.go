package server

import (
	"container/list"
	"sync"

	"soi/internal/api"
	"soi/internal/telemetry"
)

// cached is one marshaled response: everything needed to replay it to a
// later client without recomputing or re-encoding. partial mirrors the
// response body's degradation annotation for the request log and trace
// events without re-parsing the marshaled bytes.
type cached struct {
	key     string
	status  int
	body    []byte
	partial api.Partial
}

// lruCache is a size-bounded (entry-count) LRU of marshaled responses.
// Entries are immutable after insertion, so a hit can hand the byte slice to
// the response writer without copying.
type lruCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used; values are *cached
	items map[string]*list.Element

	hits    *telemetry.Counter
	misses  *telemetry.Counter
	entries *telemetry.Gauge
}

func newLRUCache(max int, tel *telemetry.Registry) *lruCache {
	return &lruCache{
		max:     max,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		hits:    tel.Counter("server.cache.hits"),
		misses:  tel.Counter("server.cache.misses"),
		entries: tel.Gauge("server.cache.entries"),
	}
}

func (c *lruCache) get(key string) (*cached, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*cached), true
}

func (c *lruCache) put(ent *cached) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[ent.key]; ok {
		el.Value = ent
		c.ll.MoveToFront(el)
		return
	}
	c.items[ent.key] = c.ll.PushFront(ent)
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cached).key)
	}
	c.entries.Set(int64(c.ll.Len()))
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// clear empties the cache (benchmarks measuring the cold path).
func (c *lruCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.entries.Set(0)
}
