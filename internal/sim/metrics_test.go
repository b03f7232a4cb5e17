package sim

import (
	"testing"

	"repro/internal/types"
)

// stalled is the number of recorded epochs before the last during which
// the highest finalized epoch stayed where it ends.
func stalled(history []EpochMetrics) int {
	n := 0
	for i := len(history) - 2; i >= 0 && history[i].MaxFinalized == history[len(history)-1].MaxFinalized; i-- {
		n++
	}
	return n
}

func TestRecorderOnHealthyChain(t *testing.T) {
	rec := &Recorder{}
	cfg := healthyConfig(8)
	cfg.OnEpoch = rec.Hook
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(6); err != nil {
		t.Fatal(err)
	}
	if len(rec.History) != 5 {
		t.Fatalf("history = %d entries, want 5 (epochs 1-5)", len(rec.History))
	}
	last := rec.History[len(rec.History)-1]
	if last.MaxFinalized < 3 || last.MinFinalized != last.MaxFinalized {
		t.Errorf("healthy finality metrics: %+v", last)
	}
	if last.InLeak != 0 {
		t.Errorf("healthy chain reports %d views in leak", last.InLeak)
	}
	if last.MinTotalStake != last.MaxTotalStake {
		t.Error("healthy views must agree on total stake")
	}
	if got := stalled(rec.History); got != 0 {
		t.Errorf("finality advancing but stall = %d", got)
	}
}

func TestRecorderDetectsStall(t *testing.T) {
	rec := &Recorder{}
	cfg := healthyConfig(16)
	cfg.GST = 1 << 30
	cfg.PartitionOf = halfSplit(16)
	cfg.OnEpoch = rec.Hook
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(8); err != nil {
		t.Fatal(err)
	}
	if got := stalled(rec.History); got < 5 {
		t.Errorf("stall = %d epochs, want >= 5 under a lasting partition", got)
	}
	last := rec.History[len(rec.History)-1]
	if last.InLeak != 16 {
		t.Errorf("views in leak = %d, want all 16", last.InLeak)
	}
}

func TestSnapshotByzProportion(t *testing.T) {
	cfg := healthyConfig(8)
	cfg.Byzantine = []types.ValidatorIndex{6, 7}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := s.MetricsAt(0)
	if m.MaxByzProportion != 0.25 {
		t.Errorf("byz proportion = %v, want 0.25", m.MaxByzProportion)
	}
}
