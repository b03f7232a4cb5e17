package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/types"
)

var writePartition = flag.Bool("write-partition", false,
	"rewrite testdata/partition-pr27.json from this build's cold sim/partition payloads")

// partitionFixtureCells is the sim/partition grid testdata/partition-pr27.json
// pins: n {8, 16, 24} x seed 1-6 x p0 {0, .3, .5, 1} x horizon {0, 3, 26, 40}
// (horizons on both sides of the epoch-26 violation, p0 0 and 1 without a
// partition), then two validator counts sim.New rejects.
func partitionFixtureCells() []Cell {
	var cells []Cell
	for _, n := range []int{8, 16, 24} {
		for seed := int64(1); seed <= 6; seed++ {
			for _, p0 := range []float64{0, 0.3, 0.5, 1} {
				for _, h := range []int{0, 3, 26, 40} {
					p := Params{P0: p0, Seed: seed, N: n, Horizon: h}.MarkExplicit(FieldP0, FieldHorizon)
					cells = append(cells, Cell{Scenario: ScenarioSimPartition, Params: p})
				}
			}
		}
	}
	for _, n := range []int{0, -4} {
		cells = append(cells, Cell{Scenario: ScenarioSimPartition, Params: Params{N: n}.MarkExplicit(FieldN)})
	}
	return cells
}

// TestSimPartitionPayloadsMatchFixture: sim/partition payloads — metrics,
// outcome, defaulted params and rejection errors, meta stripped — are byte
// for byte what the scenario's own run function wrote before it became a
// simRows row, whether the cells run cold, warm-started off shared prefixes,
// or under a checkpoint store.
func TestSimPartitionPayloadsMatchFixture(t *testing.T) {
	cells := partitionFixtureCells()
	encode := func(results []Result) []byte {
		b, err := json.MarshalIndent(StripMeta(results), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	if *writePartition {
		got := encode(SweepContext(context.Background(), cells, Options{Workers: 2}))
		if err := os.WriteFile("testdata/partition-pr27.json", got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/partition-pr27.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name string
		opt  Options
	}{
		{"cold", Options{Workers: 2}},
		{"warm", Options{Workers: 2, WarmStart: &WarmStartOptions{}}},
		{"checkpointed", Options{Workers: 2, Checkpoint: &CheckpointOptions{Every: 8, Store: newMemStore()}}},
	} {
		got := encode(SweepContext(context.Background(), cells, run.opt))
		if !bytes.Equal(got, want) {
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			line := 0
			for line < min(len(gl), len(wl)) && bytes.Equal(gl[line], wl[line]) {
				line++
			}
			t.Errorf("%s: payloads differ from the fixture first at line %d (%d lines, want %d)", run.name, line+1, len(gl), len(wl))
		}
	}
}

// partitionTrace is what a sim/partition cell decides, epoch by epoch: each
// cohort's finalized checkpoint, and the epoch of the first safety
// violation (0 for none). folded counts the blocks compaction took out of
// the trees, which only the never-healing network allows.
type partitionTrace struct {
	finalized [][]types.Checkpoint
	violation int
	folded    int
}

// tracePartition runs a cell's simulator epoch by epoch to its horizon or
// first safety violation, as the sim/partition row does, recording its
// trace.
func tracePartition(t *testing.T, cfg sim.Config, horizon int) partitionTrace {
	t.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tr partitionTrace
	for epoch := 1; epoch <= horizon && tr.violation == 0; epoch++ {
		if err := s.RunEpochs(1); err != nil {
			t.Fatal(err)
		}
		row := make([]types.Checkpoint, 0, len(s.Cohorts()))
		for _, c := range s.Cohorts() {
			row = append(row, c.Node.FFG.Finalized())
		}
		tr.finalized = append(tr.finalized, row)
		if s.CheckFinalitySafety() != nil {
			tr.violation = epoch
		}
	}
	st := s.Stats()
	tr.folded = st.Tree.Folded + st.Oracle.Folded
	return tr
}

// TestPartitionNeverMatchesHeldGST: a sim/partition cell decides the same
// whether the other side's traffic is discarded at enqueue (network.Never)
// or held for a heal at slot 2^30 that no run reaches: the same finalized
// checkpoint in every cohort every epoch, the same violation epoch. One
// cell without a partition (p0 = 1) never violates and runs past the
// 1,024-node compaction watermark, which compacts only under Never.
func TestPartitionNeverMatchesHeldGST(t *testing.T) {
	sc, _ := Default.Lookup(ScenarioSimPartition)
	var cells []Params
	for seed := int64(1); seed <= 20; seed++ {
		for _, p0 := range []float64{0.3, 0.5, 0.7} {
			p := sc.Defaults()
			p.Seed, p.P0 = seed, p0
			cells = append(cells, p)
		}
	}
	calm := sc.Defaults()
	calm.P0, calm.Horizon = 1, 48
	cells = append(cells, calm)

	for _, p := range cells {
		cfg := partitionConfig(p)
		never := tracePartition(t, cfg, p.Horizon)
		cfg.GST = 1 << 30
		held := tracePartition(t, cfg, p.Horizon)
		if never.violation != held.violation || !reflect.DeepEqual(never.finalized, held.finalized) {
			t.Fatalf("seed %d p0 %v: Never violates at %d, GST 2^30 at %d; finalized checkpoints equal: %v",
				p.Seed, p.P0, never.violation, held.violation, reflect.DeepEqual(never.finalized, held.finalized))
		}
		if p == calm {
			if never.violation != 0 || never.folded == 0 || held.folded != 0 {
				t.Errorf("p0 = 1 cell: violation %d, folded %d under Never and %d under GST 2^30; want 0, >0, 0",
					never.violation, never.folded, held.folded)
			}
		} else if never.violation != 26 || len(never.finalized[0]) != 2 {
			t.Errorf("seed %d p0 %v: violation at %d over %d cohorts, want 26 over 2", p.Seed, p.P0, never.violation, len(never.finalized[0]))
		}
	}
}
