package server

import (
	"container/list"
	"sync"

	"repro/internal/engine"
)

// resultCache is a thread-safe LRU of successful scenario results keyed by
// engine.CellKey, the canonical key every tier shares. Results are stored without execution metadata; hits are served
// with a fresh Cached marker.
type resultCache struct {
	mu           sync.Mutex
	max          int
	ll           *list.List // front = most recently used
	items        map[string]*list.Element
	hits, misses uint64
}

type cacheEntry struct {
	key string
	res engine.Result
}

func newResultCache(max int) *resultCache {
	// A non-positive capacity would make every add evict immediately (or
	// grow without bound, depending on reading); callers wanting "no
	// cache" must not construct one, so clamp to the serving default.
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &resultCache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached result and promotes the entry.
func (c *resultCache) get(key string) (engine.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return engine.Result{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// add stores a result, evicting the least recently used entry when full.
func (c *resultCache) add(key string, res engine.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (c *resultCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
