package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
)

// countedRegistry builds a registry with one deterministic scenario that
// counts its invocations — the probe for "served without recomputation".
func countedRegistry(runs *atomic.Int64) *engine.Registry {
	reg := engine.NewRegistry()
	reg.MustRegister(engine.NewScenario("counted", "counts invocations",
		engine.Params{P0: 0.5, N: 10}, engine.FieldAll,
		func(_ context.Context, p engine.Params) (engine.Result, error) {
			runs.Add(1)
			return engine.Result{
				Outcome: fmt.Sprintf("seed %d", p.Seed),
				Metrics: []engine.Metric{{Name: "value", Value: float64(p.Seed)*10 + p.P0}},
			}, nil
		}))
	return reg
}

// storeServer builds a Server (not just its handler) so tests can reach
// the persistent tier, plus an httptest front end.
func storeServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	return s, ts
}

func getResult(t *testing.T, url string, body any) engine.Result {
	t.Helper()
	resp := postJSON(t, url+"/run", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var res engine.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunReadThroughStore pins the tier order LRU → store → compute: with
// the LRU disabled, a repeated /run is served from disk; with the LRU
// enabled, a store hit is promoted so the next lookup never touches disk.
func TestRunReadThroughStore(t *testing.T) {
	var runs atomic.Int64
	reg := countedRegistry(&runs)
	dir := t.TempDir()
	s, ts := storeServer(t, Config{Registry: reg, StoreDir: dir, CacheSize: -1})

	body := map[string]any{"scenario": "counted", "params": engine.Params{Seed: 7}}
	first := getResult(t, ts.URL, body)
	if runs.Load() != 1 || (first.Meta != nil && first.Meta.Cached) {
		t.Fatalf("first run: %d invocations, meta %+v; want one fresh compute", runs.Load(), first.Meta)
	}
	if st := s.results.store.Stats(); st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("store after compute: %+v, want the result persisted", st)
	}

	second := getResult(t, ts.URL, body)
	if runs.Load() != 1 {
		t.Errorf("repeat run recomputed (%d invocations)", runs.Load())
	}
	if second.Meta == nil || !second.Meta.Cached {
		t.Errorf("repeat run meta = %+v, want served from the store", second.Meta)
	}
	if !reflect.DeepEqual(first.WithoutMeta(), second.WithoutMeta()) {
		t.Error("store-served payload diverges from computed payload")
	}

	// With an LRU in front, a store hit is promoted: the second lookup is
	// an LRU hit, not another disk read.
	s2, ts2 := storeServer(t, Config{Registry: reg, StoreDir: dir, CacheSize: 8})
	getResult(t, ts2.URL, body)
	fromStore := s2.metrics.cellsFromStore.Load()
	getResult(t, ts2.URL, body)
	if runs.Load() != 1 {
		t.Errorf("tiered server recomputed (%d invocations)", runs.Load())
	}
	if got := s2.metrics.cellsFromStore.Load(); got != fromStore {
		t.Errorf("second lookup read disk again (%d store hits, was %d); want LRU promotion", got, fromStore)
	}
	if got, _ := s2.results.cache.stats(); got != 1 {
		t.Errorf("LRU hits = %d, want 1", got)
	}
}

// TestSweepSurvivesRestartFromStore is the restart acceptance test: a
// second server process (fresh LRU, same store directory) serves the first
// process's whole sweep from disk, bit-identically, without invoking a
// scenario once.
func TestSweepSurvivesRestartFromStore(t *testing.T) {
	var runs atomic.Int64
	reg := countedRegistry(&runs)
	dir := t.TempDir()

	_, tsA := storeServer(t, Config{Registry: reg, StoreDir: dir})
	body := map[string]any{"cells": []engine.Cell{
		{Scenario: "counted", Params: engine.Params{Seed: 1}},
		{Scenario: "counted", Params: engine.Params{Seed: 2}},
		{Scenario: "counted", Params: engine.Params{Seed: 3}},
	}}
	first := decodeNDJSON(t, postJSON(t, tsA.URL+"/sweep", body))
	if runs.Load() != 3 {
		t.Fatalf("first sweep ran %d cells, want 3", runs.Load())
	}

	// "Restart": a brand-new Server over the same directory, cold LRU.
	sB, tsB := storeServer(t, Config{Registry: reg, StoreDir: dir})
	second := decodeNDJSON(t, postJSON(t, tsB.URL+"/sweep", body))
	if runs.Load() != 3 {
		t.Errorf("restarted server recomputed: %d total invocations, want still 3", runs.Load())
	}
	if len(second) != 3 {
		t.Fatalf("restarted sweep streamed %d updates, want 3", len(second))
	}
	firstRes := make([]engine.Result, 3)
	secondRes := make([]engine.Result, 3)
	for i := range first {
		firstRes[first[i].Index] = first[i].Result
		secondRes[second[i].Index] = second[i].Result
	}
	for i, r := range secondRes {
		if r.Meta == nil || !r.Meta.Cached {
			t.Errorf("restarted cell %d meta = %+v, want served from disk", i, r.Meta)
		}
	}
	if !reflect.DeepEqual(engine.StripMeta(firstRes), engine.StripMeta(secondRes)) {
		t.Error("restarted sweep payload diverges from the original")
	}
	if st := sB.results.store.Stats(); st.Hits < 3 {
		t.Errorf("restarted store stats = %+v, want >= 3 hits", st)
	}
}

// TestStoreCorruptionRecomputesAndRewrites: a damaged entry (torn write)
// must never surface as an error — the server silently recomputes and
// rewrites it.
func TestStoreCorruptionRecomputesAndRewrites(t *testing.T) {
	var runs atomic.Int64
	reg := countedRegistry(&runs)
	s, ts := storeServer(t, Config{Registry: reg, StoreDir: t.TempDir(), CacheSize: -1})

	body := map[string]any{"scenario": "counted", "params": engine.Params{Seed: 9}}
	first := getResult(t, ts.URL, body)

	key := engine.CellKey("counted", engine.Params{Seed: 9}.WithDefaults(engine.Params{P0: 0.5, N: 10}))
	if ok, err := store.CorruptForTest(s.results.store, key); !ok || err != nil {
		t.Fatalf("CorruptForTest = %v, %v; is the cache key still canonical?", ok, err)
	}

	second := getResult(t, ts.URL, body) // 200, recomputed, never a 500
	if runs.Load() != 2 {
		t.Errorf("after corruption: %d invocations, want a recomputation (2)", runs.Load())
	}
	if second.Meta != nil && second.Meta.Cached {
		t.Error("corrupted entry was served as a cache hit")
	}
	if !reflect.DeepEqual(first.WithoutMeta(), second.WithoutMeta()) {
		t.Error("recomputed payload diverges")
	}
	st := s.results.store.Stats()
	if st.Corrupt != 1 {
		t.Errorf("store stats = %+v, want the damage counted", st)
	}
	// The recomputation rewrote the entry: a third request is a disk hit.
	third := getResult(t, ts.URL, body)
	if runs.Load() != 2 || third.Meta == nil || !third.Meta.Cached {
		t.Errorf("rewrite not served: %d invocations, meta %+v", runs.Load(), third.Meta)
	}
}

// TestStoreUndecodablePayloadRecomputes: a stored payload that passes the
// checksum but no longer decodes (schema drift) is a counted corrupt miss,
// recomputed and rewritten, never written out as a hit from its bytes —
// on /run and on /sweep, with the LRU in front of the store.
func TestStoreUndecodablePayloadRecomputes(t *testing.T) {
	var runs atomic.Int64
	reg := countedRegistry(&runs)
	s, ts := storeServer(t, Config{Registry: reg, StoreDir: t.TempDir()})
	defaults := engine.Params{P0: 0.5, N: 10}
	for _, seed := range []int64{3, 4} {
		key := engine.CellKey("counted", engine.Params{Seed: seed}.WithDefaults(defaults))
		if err := s.results.store.PutPayload(key, []byte(`{"scenario":"counted","metrics":"drifted"}`)); err != nil {
			t.Fatal(err)
		}
	}

	run := getResult(t, ts.URL, map[string]any{"scenario": "counted", "params": engine.Params{Seed: 3}})
	sweep := decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", map[string]any{"cells": []engine.Cell{{Scenario: "counted", Params: engine.Params{Seed: 4}}}}))
	for i, res := range []engine.Result{run, sweep[0].Result} {
		if res.Meta == nil || res.Meta.Cached || res.Outcome != fmt.Sprintf("seed %d", 3+i) {
			t.Errorf("answer %d: %+v, want a recomputation", i, res)
		}
	}
	if st := s.results.store.Stats(); runs.Load() != 2 || st.Corrupt != 2 || st.Entries != 2 {
		t.Errorf("%d runs, store %+v: want both recomputed, counted corrupt and rewritten", runs.Load(), st)
	}
	if again := getResult(t, ts.URL, map[string]any{"scenario": "counted", "params": engine.Params{Seed: 3}}); !again.Meta.Cached || runs.Load() != 2 {
		t.Errorf("the rewritten cell was not a hit: %+v after %d runs", again, runs.Load())
	}
}

// TestConcurrentStoreReadThrough hammers one parameter point from many
// goroutines through the full tier stack; every response must be a valid,
// identical payload (the race detector guards the rest in CI).
func TestConcurrentStoreReadThrough(t *testing.T) {
	var runs atomic.Int64
	reg := countedRegistry(&runs)
	s, ts := storeServer(t, Config{Registry: reg, StoreDir: t.TempDir(), CacheSize: 4})

	const goroutines = 12
	payloads := make([]engine.Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := map[string]any{"scenario": "counted", "params": engine.Params{Seed: 5}}
			payloads[g] = getResult(t, ts.URL, body).WithoutMeta()
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(payloads[0], payloads[g]) {
			t.Fatalf("goroutine %d saw a different payload", g)
		}
	}
	if st := s.results.store.Stats(); st.Entries != 1 {
		t.Errorf("store holds %d entries for one parameter point", st.Entries)
	}
	if n := runs.Load(); n < 1 || n > goroutines {
		t.Errorf("invocations = %d, want within [1, %d]", n, goroutines)
	}
}

// TestHealthzReportsStoreStats: the store tier is visible in /healthz
// alongside the LRU stats.
func TestHealthzReportsStoreStats(t *testing.T) {
	var runs atomic.Int64
	reg := countedRegistry(&runs)
	_, ts := storeServer(t, Config{Registry: reg, StoreDir: t.TempDir()})
	getResult(t, ts.URL, map[string]any{"scenario": "counted", "params": engine.Params{Seed: 1}})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status string            `json:"status"`
		Cache  map[string]uint64 `json:"cache"`
		Store  *store.Stats      `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Store == nil {
		t.Fatalf("healthz = %+v, want store statistics", health)
	}
	if health.Store.Entries != 1 || health.Store.Puts != 1 {
		t.Errorf("store stats = %+v, want 1 entry / 1 put", health.Store)
	}
	if health.Cache == nil {
		t.Error("LRU stats must stay present alongside the store's")
	}
}
