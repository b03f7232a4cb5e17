package engine

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/types"
)

// partitionTrace is what a sim/partition cell decides, epoch by epoch: each
// cohort's finalized checkpoint, and the epoch of the first safety
// violation (0 for none). folded counts the blocks compaction took out of
// the trees, which only the never-healing network allows.
type partitionTrace struct {
	finalized [][]types.Checkpoint
	violation int
	folded    int
}

// tracePartition runs a cell's simulator the way simulatePartition does,
// recording its trace.
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
