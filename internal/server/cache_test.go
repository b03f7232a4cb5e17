package server

import (
	"fmt"
	"testing"

	"repro/internal/engine"
)

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	res := func(n int) []byte { return fmt.Appendf(nil, "s%d", n) }
	c.add("a", res(1))
	c.add("b", res(2))
	if _, ok := c.get("a"); !ok { // promotes "a" over "b"
		t.Fatal("a must be cached")
	}
	c.add("c", res(3)) // evicts "b", the least recently used
	if _, ok := c.get("b"); ok {
		t.Error("b must have been evicted")
	}
	for _, key := range []string{"a", "c"} {
		if _, ok := c.get(key); !ok {
			t.Errorf("%s must survive eviction", key)
		}
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	hits, misses := c.stats()
	if hits != 3 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 3/1", hits, misses)
	}
}

func TestResultCacheUpdateInPlace(t *testing.T) {
	c := newResultCache(2)
	c.add("k", []byte("old"))
	c.add("k", []byte("new"))
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1 (update, not duplicate)", c.len())
	}
	if r, _ := c.get("k"); string(r) != "new" {
		t.Errorf("got %q, want the updated entry", r)
	}
}

// TestCacheKeyCanonicalization pins the LRU's key, engine.CellKey, as the
// server uses it: identical cells share an entry, and every dimension a
// sweep varies — scenario, p0, rate, gst — reaches a different one, so a
// cached cell is never served for its neighbour.
func TestCacheKeyCanonicalization(t *testing.T) {
	c := newResultCache(8)
	a := engine.CellKey("leaksim", engine.Params{P0: 0.5, N: 10000})
	c.add(a, []byte("leaksim"))
	if _, ok := c.get(engine.CellKey("leaksim", engine.Params{P0: 0.5, N: 10000})); !ok {
		t.Error("identical params must share a key")
	}
	for name, key := range map[string]string{
		"p0":       engine.CellKey("leaksim", engine.Params{P0: 0.6, N: 10000}),
		"scenario": engine.CellKey("bounce-mc", engine.Params{P0: 0.5, N: 10000}),
		"rate":     engine.CellKey("leaksim", engine.Params{P0: 0.5, N: 10000, Rate: 0.2}),
		"gst":      engine.CellKey("leaksim", engine.Params{P0: 0.5, N: 10000, GST: 8}),
	} {
		if _, ok := c.get(key); ok || key == a {
			t.Errorf("%s must distinguish keys", name)
		}
	}
}

// TestNewResultCacheGuardsNonPositiveCapacity pins the max <= 0 guard: a
// clamped cache must still cache (not evict every entry immediately).
func TestNewResultCacheGuardsNonPositiveCapacity(t *testing.T) {
	for _, max := range []int{0, -5} {
		c := newResultCache(max)
		c.add("k", []byte("s"))
		if _, ok := c.get("k"); !ok {
			t.Errorf("newResultCache(%d) evicted its only entry", max)
		}
	}
}
