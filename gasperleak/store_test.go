package gasperleak_test

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/gasperleak"
	"repro/internal/engine"
)

// storeTestRegistry registers one invocation-counting scenario; the test
// builds it through the internal engine package (same module) since the
// public surface re-exports the registry type but reproductions normally
// run the built-in registry.
func storeTestRegistry(runs *atomic.Int64) *gasperleak.ScenarioRegistry {
	reg := engine.NewRegistry()
	reg.MustRegister(gasperleak.NewScenario("counted", "counts invocations",
		gasperleak.ScenarioParams{P0: 0.5, N: 10},
		func(_ context.Context, p gasperleak.ScenarioParams) (gasperleak.ScenarioResult, error) {
			runs.Add(1)
			return gasperleak.ScenarioResult{
				Outcome: fmt.Sprintf("seed %d", p.Seed),
				Metrics: []gasperleak.ScenarioMetric{{Name: "value", Value: float64(p.Seed)}},
			}, nil
		}))
	return reg
}

// TestClientResultStoreReadThrough: a client with WithResultStore serves
// repeated runs and sweeps from disk, and a second client over the same
// directory (a later process) inherits every result.
func TestClientResultStoreReadThrough(t *testing.T) {
	ctx := context.Background()
	var runs atomic.Int64
	reg := storeTestRegistry(&runs)
	dir := t.TempDir()

	c1, err := gasperleak.NewClient(gasperleak.WithRegistry(reg), gasperleak.WithResultStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	first, err := c1.Run(ctx, "counted", gasperleak.ScenarioParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("first run: %d invocations, want 1", runs.Load())
	}
	second, err := c1.Run(ctx, "counted", gasperleak.ScenarioParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Errorf("repeat run recomputed (%d invocations)", runs.Load())
	}
	if second.Meta == nil || !second.Meta.Cached {
		t.Errorf("repeat run meta = %+v, want a store hit", second.Meta)
	}
	if !reflect.DeepEqual(first.WithoutMeta(), second.WithoutMeta()) {
		t.Error("store-served payload diverges")
	}
	if stats, ok := c1.StoreStats(); !ok || stats.Entries != 1 || stats.Hits != 1 {
		t.Errorf("StoreStats = %+v, %v; want 1 entry, 1 hit", stats, ok)
	}

	// Sweep: the stored cell is a hit, the rest compute and persist.
	cells := []gasperleak.SweepCell{
		{Scenario: "counted", Params: gasperleak.ScenarioParams{Seed: 3}},
		{Scenario: "counted", Params: gasperleak.ScenarioParams{Seed: 4}},
		{Scenario: "counted", Params: gasperleak.ScenarioParams{Seed: 5}},
	}
	swept := c1.Sweep(ctx, cells)
	if runs.Load() != 3 {
		t.Errorf("sweep over a warm store ran %d total cells, want 3 (one was stored)", runs.Load())
	}
	if len(swept) != 3 || swept[0].Meta == nil || !swept[0].Meta.Cached {
		t.Errorf("sweep cell 0 meta = %+v, want the stored cell served from disk", swept[0].Meta)
	}

	// A second client over the same directory inherits everything.
	c2, err := gasperleak.NewClient(gasperleak.WithRegistry(reg), gasperleak.WithResultStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	again := c2.Sweep(ctx, cells)
	if runs.Load() != 3 {
		t.Errorf("second client recomputed: %d total invocations, want still 3", runs.Load())
	}
	if !reflect.DeepEqual(gasperleak.StripScenarioMeta(swept), gasperleak.StripScenarioMeta(again)) {
		t.Error("second client's sweep payload diverges")
	}
}

// TestClientWithoutStoreUnchanged: Close and StoreStats are nil-safe and
// sweeps behave exactly as before when no store is configured.
func TestClientWithoutStoreUnchanged(t *testing.T) {
	var runs atomic.Int64
	reg := storeTestRegistry(&runs)
	c, err := gasperleak.NewClient(gasperleak.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.StoreStats(); ok {
		t.Error("StoreStats ok without a store")
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close without a store: %v", err)
	}
	cells := []gasperleak.SweepCell{
		{Scenario: "counted", Params: gasperleak.ScenarioParams{Seed: 1}},
		{Scenario: "counted", Params: gasperleak.ScenarioParams{Seed: 2}},
	}
	res := c.Sweep(context.Background(), cells)
	if len(res) != 2 || runs.Load() != 2 {
		t.Errorf("plain sweep: %d results, %d invocations", len(res), runs.Load())
	}
	if res[0].Meta != nil && res[0].Meta.Cached {
		t.Error("plain sweep reported a cache hit from nowhere")
	}
}

// TestClientBadStoreDir: an unusable store directory fails construction
// with a clear error instead of a silent in-memory fallback.
func TestClientBadStoreDir(t *testing.T) {
	_, err := gasperleak.NewClient(gasperleak.WithResultStore("/dev/null/not-a-dir"))
	if err == nil {
		t.Fatal("WithResultStore over a file must error")
	}
}

// BenchmarkClientStoreHit is Client.Run answered by WithResultStore: the
// canonical key, the entry read and checked in place, and one decode of
// the payload into the returned result. The cell is the store fixture's
// 64-validator sim/gst cell, computed and stored once before the timer.
func BenchmarkClientStoreHit(b *testing.B) {
	ctx := context.Background()
	c, err := gasperleak.NewClient(gasperleak.WithResultStore(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	p := gasperleak.ScenarioParams{P0: 0.5, N: 64, Horizon: 12, Seed: 3, GST: 6}
	computed, err := c.Run(ctx, engine.ScenarioSimGST, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Run(ctx, engine.ScenarioSimGST, p)
		if err != nil || res.Meta == nil || !res.Meta.Cached {
			b.Fatalf("run %d was not a store hit: %+v, %v", i, res.Meta, err)
		}
	}
	b.StopTimer()
	if res, _ := c.Run(ctx, engine.ScenarioSimGST, p); !reflect.DeepEqual(res.WithoutMeta(), computed.WithoutMeta()) {
		b.Fatalf("store hit %+v, computed %+v", res.WithoutMeta(), computed.WithoutMeta())
	}
}
