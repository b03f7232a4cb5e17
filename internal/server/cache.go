package server

import (
	"container/list"
	"sync"
)

// resultCache is a thread-safe LRU of result payloads keyed by
// engine.CellKey, the canonical key every tier shares: the bytes the store
// writes for a success (engine.EncodePayload), which a hit is written from.
type resultCache struct {
	mu           sync.Mutex
	max          int
	ll           *list.List // front = most recently used
	items        map[string]*list.Element
	hits, misses uint64
}

type cacheEntry struct {
	key     string
	payload []byte
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

// get returns the cached payload and promotes the entry.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).payload, true
}

// add stores a payload, evicting the least recently used entry when full.
func (c *resultCache) add(key string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).payload = payload
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, payload: payload})
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
