package store_test

import (
	"bytes"
	"context"
	"reflect"
	"sync"
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

// gridResults is the grid computed warm, once per test binary.
var gridResults = sync.OnceValue(func() []engine.Result {
	return engine.SweepContext(context.Background(), benchGrid(), engine.Options{Workers: 1, WarmStart: &engine.WarmStartOptions{}})
})

// gridStore writes the grid's results to a 30-entry result store in a
// fresh directory and returns the directory and the cells' keys.
func gridStore(b *testing.B) (dir string, keys []string) {
	b.Helper()
	keys = cellKeys(b, benchGrid())
	dir = b.TempDir()
	r, err := store.OpenResults(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i, res := range gridResults() {
		if err := r.Put(keys[i], res); err != nil {
			b.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
	return dir, keys
}

// BenchmarkStoreGet/hit reads the grid's results back from a 30-entry
// result store, one per op, as the bench harness's reuse-tiers workload
// does: the content address, the entry read into a buffer off the store's
// free list and checked in place, and the result decoded where it was read.
func BenchmarkStoreGet(b *testing.B) {
	dir, keys := gridStore(b)
	r, err := store.OpenResults(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := r.Get(keys[i%len(keys)]); !ok {
				b.Fatalf("cell %d missing from the store", i%len(keys))
			}
		}
	})
}

// BenchmarkStoreOpen reopens the grid's 30-entry result store, one per op,
// as each stored pass of the reuse-tiers workload does: the store directory
// listed once, its entries counted and its temp files swept.
func BenchmarkStoreOpen(b *testing.B) {
	dir, keys := gridStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := store.OpenResults(dir)
		if err != nil {
			b.Fatal(err)
		}
		if n := r.Stats().Entries; n != int64(len(keys)) {
			b.Fatalf("reopened store counts %d entries, want %d", n, len(keys))
		}
		r.Close()
	}
}

// BenchmarkStorePut writes one of the grid's results into the populated
// 30-entry result store, one per op, overwriting its entry: the temp file
// created in the store directory, written, synced and renamed to the
// entry's address.
func BenchmarkStorePut(b *testing.B) {
	dir, keys := gridStore(b)
	r, err := store.OpenResults(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	payload, err := engine.EncodePayload(gridResults()[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := r.PutPayload(keys[0], payload); err != nil {
			b.Fatal(err)
		}
	}
}

// resumeCell is the reuse-tiers workload's checkpointed cell: 2,500
// validators of sim/leak, resumed at epoch 50 and run to its horizon, 60.
var resumeCell = engine.Cell{Scenario: engine.ScenarioSimLeak, Params: engine.Params{P0: 0.5, N: 2500, Horizon: 60, Seed: 1}}

// savedCheckpoint saves resumeCell's epoch-50 checkpoint in a store in a
// fresh directory and returns the store's checkpoint tier, the cell's key
// and the frame's size.
func savedCheckpoint(b *testing.B) (ckpts *store.Checkpoints, key string, frameBytes int) {
	b.Helper()
	sc, _ := engine.Lookup(resumeCell.Scenario)
	cs := sc.(engine.CheckpointableScenario)
	pre, err := cs.RunTo(context.Background(), resumeCell.Params.WithDefaults(sc.Defaults()), nil, 50)
	if err != nil {
		b.Fatal(err)
	}
	var frame bytes.Buffer
	if err := cs.EncodePrefix(&frame, pre); err != nil {
		b.Fatal(err)
	}
	r, err := store.OpenResults(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	ckpts = r.Checkpoints()
	key, _ = engine.CanonicalCellKey(nil, resumeCell)
	if err := ckpts.SaveCheckpoint(key, frame.Bytes()); err != nil {
		b.Fatal(err)
	}
	return ckpts, key, frame.Len()
}

// BenchmarkCheckpointLoad decodes the reuse-tiers workload's checkpoint, one
// per op: the 2,500-validator sim/leak cell's prefix at epoch 50, lent from
// the store's read buffer and decoded there into a new snapshot
// (DecodePrefix); it does not resume the cell. frame-B is the checkpoint's
// size, which a copy of the lent payload would add to B/op.
func BenchmarkCheckpointLoad(b *testing.B) {
	sc, _ := engine.Lookup(resumeCell.Scenario)
	cs := sc.(engine.CheckpointableScenario)
	ckpts, key, frameBytes := savedCheckpoint(b)
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var loaded *engine.Prefix
		ckpts.ReadCheckpoint(key, func(payload []byte) bool {
			loaded, err = cs.DecodePrefix(bytes.NewReader(payload))
			return err == nil
		})
		if loaded == nil || loaded.Epoch != 50 {
			b.Fatalf("checkpoint did not load: %v", err)
		}
	}
	b.ReportMetric(float64(frameBytes), "frame-B")
}

// keptCheckpoints is a checkpoint tier whose entries outlive the cells that
// complete them, so every op resumes from the same checkpoint.
type keptCheckpoints struct{ *store.Checkpoints }

func (keptCheckpoints) DeleteCheckpoint(string) {}

// BenchmarkCheckpointResume runs the reuse-tiers workload's resume, one per
// op: RunCell of the 2,500-validator sim/leak cell with periodic
// checkpoints off, which finds its epoch-50 checkpoint, loads it into the
// spare simulation the op before finished, and steps the last ten epochs.
// CI gates its B/op (cmd/benchgate/gates.json).
func BenchmarkCheckpointResume(b *testing.B) {
	ckpts, _, _ := savedCheckpoint(b)
	opt := engine.Options{Checkpoint: &engine.CheckpointOptions{Every: -1, Store: keptCheckpoints{ckpts}}}
	resume := func() {
		res, err := engine.RunCell(context.Background(), resumeCell, opt)
		if err != nil || res.Meta == nil || res.Meta.Checkpoint == nil || res.Meta.Checkpoint.ResumeEpoch != 50 {
			b.Fatalf("the cell did not resume from its epoch-50 checkpoint: %v", err)
		}
	}
	resume() // leaves a spare of the cell's shape, as a rep before does
	b.ReportAllocs()
	for b.Loop() {
		resume()
	}
}
