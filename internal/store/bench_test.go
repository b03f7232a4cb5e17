package store_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
)

// benchGrid is the persistence acceptance workload, the same 30-cell
// sim/gst grid at 10,000 validators the warm-start benchmark sweeps: 15
// horizons x 2 gst values. Cold computes every cell through the engine;
// store re-serves the whole grid from a populated result store, which is
// what a restarted serve process (or a fresh client over WithResultStore)
// does for a repeated grid.
func benchGrid() []engine.Cell {
	horizons := make([]int, 0, 15)
	for h := 8; h <= 22; h++ {
		horizons = append(horizons, h)
	}
	return engine.Grid{
		Scenario: "sim/gst",
		P0:       []float64{0.5},
		GSTs:     []int{30, 40},
		Horizons: horizons,
		N:        10000,
	}.Cells()
}

// cellKeys resolves every cell's canonical store key.
func cellKeys(b *testing.B, cells []engine.Cell) []string {
	b.Helper()
	keys := make([]string, len(cells))
	for i, c := range cells {
		key, ok := engine.CanonicalCellKey(nil, c)
		if !ok {
			b.Fatalf("cell %d: unknown scenario %q", i, c.Scenario)
		}
		keys[i] = key
	}
	return keys
}

// BenchmarkSweepStoreWarm measures the persistent tier's payoff: "cold"
// computes the grid through the engine; "store" re-serves the identical
// grid from a freshly reopened result store over the same directory — the
// restarted-process path, including reopen, disk reads, integrity checks,
// and JSON decoding. CI gates store >= 20x cold cells/sec, and the
// store-served payload is asserted bit-identical to the computed one —
// the speedup is only admissible because the bytes are the same.
func BenchmarkSweepStoreWarm(b *testing.B) {
	cells := benchGrid()
	keys := cellKeys(b, cells)
	dir := b.TempDir()

	var cold []engine.Result
	b.Run("cold", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cold = engine.SweepContext(context.Background(), cells, engine.Options{Workers: 1})
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N*len(cells))/secs, "cells/sec")
		}
		for i, r := range cold {
			if r.Err != "" {
				b.Fatalf("cell %d failed: %s", i, r.Err)
			}
		}
	})
	if cold == nil {
		b.Skip("cold sweep did not run")
	}

	// Populate the store outside any timer, then reopen per iteration so
	// the measured path includes everything a fresh process pays.
	populate, err := store.OpenResults(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i, r := range cold {
		if err := populate.Put(keys[i], r); err != nil {
			b.Fatal(err)
		}
	}
	if err := populate.Close(); err != nil {
		b.Fatal(err)
	}

	var served []engine.Result
	b.Run("store", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := store.OpenResults(dir)
			if err != nil {
				b.Fatal(err)
			}
			served = make([]engine.Result, len(cells))
			for j, key := range keys {
				res, ok := r.Get(key)
				if !ok {
					b.Fatalf("cell %d missing from the store", j)
				}
				served[j] = res
			}
			if err := r.Close(); err != nil {
				b.Fatal(err)
			}
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N*len(cells))/secs, "cells/sec")
		}
	})
	if served != nil {
		for i := range cold {
			if !reflect.DeepEqual(cold[i].WithoutMeta(), served[i].WithoutMeta()) {
				b.Fatalf("cell %d: store-served result diverges from computed", i)
			}
		}
	}
}

// BenchmarkStoreGet/hit reads the grid's results back from a 30-entry
// result store, one per op, as the bench harness's reuse-tiers workload
// does: the content address, the entry read into a buffer off the store's
// free list and checked in place, and the result's JSON decode.
func BenchmarkStoreGet(b *testing.B) {
	cells := benchGrid()
	keys := cellKeys(b, cells)
	results := engine.SweepContext(context.Background(), cells, engine.Options{Workers: 1, WarmStart: &engine.WarmStartOptions{}})
	r, err := store.OpenResults(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	for i, res := range results {
		if err := r.Put(keys[i], res); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := r.Get(keys[i%len(keys)]); !ok {
				b.Fatalf("cell %d missing from the store", i%len(keys))
			}
		}
	})
}
