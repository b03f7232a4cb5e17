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

// storeRuns and plainRuns count the invocations of the two counting
// scenarios these tests add to the built-in registry, the one every Client
// runs. Tests read them as deltas, so a repeated run of the suite counts
// from where the last left them.
var storeRuns, plainRuns atomic.Int64

func init() {
	engine.Default.MustRegister(countedScenario("test/counted-store", &storeRuns))
	engine.Default.MustRegister(countedScenario("test/counted-plain", &plainRuns))
}

// countedScenario is a cheap scenario that counts its invocations.
func countedScenario(name string, runs *atomic.Int64) gasperleak.Scenario {
	return engine.NewScenario(name, "counts invocations",
		gasperleak.ScenarioParams{P0: 0.5, N: 10}, engine.FieldAll,
		func(_ context.Context, p gasperleak.ScenarioParams) (gasperleak.ScenarioResult, error) {
			runs.Add(1)
			return gasperleak.ScenarioResult{
				Outcome: fmt.Sprintf("seed %d", p.Seed),
				Metrics: []gasperleak.ScenarioMetric{{Name: "value", Value: float64(p.Seed)}},
			}, nil
		})
}

// TestClientResultStoreReadThrough: a client with WithResultStore serves
// repeated runs and sweeps from disk, and a second client over the same
// directory (a later process) inherits every result.
func TestClientResultStoreReadThrough(t *testing.T) {
	ctx := context.Background()
	base := storeRuns.Load()
	runs := func() int64 { return storeRuns.Load() - base }
	dir := t.TempDir()

	c1, err := gasperleak.NewClient(gasperleak.WithResultStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	first, err := c1.Run(ctx, "test/counted-store", gasperleak.ScenarioParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if runs() != 1 {
		t.Fatalf("first run: %d invocations, want 1", runs())
	}
	second, err := c1.Run(ctx, "test/counted-store", gasperleak.ScenarioParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if runs() != 1 {
		t.Errorf("repeat run recomputed (%d invocations)", runs())
	}
	if second.Meta == nil || !second.Meta.Cached {
		t.Errorf("repeat run meta = %+v, want a store hit", second.Meta)
	}
	if !reflect.DeepEqual(first.WithoutMeta(), second.WithoutMeta()) {
		t.Error("store-served payload diverges")
	}

	// Sweep: the stored cell is a hit, the rest compute and persist.
	cells := []gasperleak.SweepCell{
		{Scenario: "test/counted-store", Params: gasperleak.ScenarioParams{Seed: 3}},
		{Scenario: "test/counted-store", Params: gasperleak.ScenarioParams{Seed: 4}},
		{Scenario: "test/counted-store", Params: gasperleak.ScenarioParams{Seed: 5}},
	}
	swept := c1.Sweep(ctx, cells)
	if runs() != 3 {
		t.Errorf("sweep over a warm store ran %d total cells, want 3 (one was stored)", runs())
	}
	if len(swept) != 3 || swept[0].Meta == nil || !swept[0].Meta.Cached {
		t.Errorf("sweep cell 0 meta = %+v, want the stored cell served from disk", swept[0].Meta)
	}

	// A second client over the same directory inherits everything.
	c2, err := gasperleak.NewClient(gasperleak.WithResultStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	again := c2.Sweep(ctx, cells)
	if runs() != 3 {
		t.Errorf("second client recomputed: %d total invocations, want still 3", runs())
	}
	if !reflect.DeepEqual(engine.StripMeta(swept), engine.StripMeta(again)) {
		t.Error("second client's sweep payload diverges")
	}
}

// TestClientWithoutStoreUnchanged: Close is nil-safe and sweeps behave
// exactly as before when no store is configured.
func TestClientWithoutStoreUnchanged(t *testing.T) {
	base := plainRuns.Load()
	runs := func() int64 { return plainRuns.Load() - base }
	c, err := gasperleak.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close without a store: %v", err)
	}
	cells := []gasperleak.SweepCell{
		{Scenario: "test/counted-plain", Params: gasperleak.ScenarioParams{Seed: 1}},
		{Scenario: "test/counted-plain", Params: gasperleak.ScenarioParams{Seed: 2}},
	}
	res := c.Sweep(context.Background(), cells)
	if len(res) != 2 || runs() != 2 {
		t.Errorf("plain sweep: %d results, %d invocations", len(res), runs())
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
