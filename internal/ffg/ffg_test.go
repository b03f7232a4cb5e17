package ffg

import (
	"errors"
	"testing"

	"repro/internal/attestation"
	"repro/internal/types"
)

func cp(epoch, root uint64) types.Checkpoint {
	return types.Checkpoint{Epoch: types.Epoch(epoch), Root: types.RootFromUint64(root)}
}

func link(src, tgt types.Checkpoint) attestation.Link {
	return attestation.Link{Source: src, Target: tgt}
}

// tally is a one-link ProcessTally input.
func tally(l attestation.Link, w types.Gwei) []attestation.LinkWeight {
	return []attestation.LinkWeight{{Link: l, Weight: w}}
}

func TestNewEngineGenesisJustifiedFinalized(t *testing.T) {
	e := NewEngine(types.RootFromUint64(0))
	g := cp(0, 0)
	if !e.Justified(g) {
		t.Error("genesis must start justified")
	}
	if e.Finalized() != g || e.LatestJustified() != g {
		t.Error("genesis must start finalized and latest-justified")
	}
}

func TestSupermajority(t *testing.T) {
	tests := []struct {
		w, total types.Gwei
		want     bool
	}{
		{67, 100, true},
		{66, 100, false}, // 66 is not strictly > 2/3*100
		{2, 3, false},    // exactly 2/3
		{3, 4, true},
		{0, 100, false},
		{100, 100, true},
	}
	for _, tt := range tests {
		if got := Supermajority(tt.w, tt.total); got != tt.want {
			t.Errorf("Supermajority(%d, %d) = %v, want %v", tt.w, tt.total, got, tt.want)
		}
	}
}

// advanced reports whether a ProcessTally call justified or finalized
// anything.
func advanced(r Result) bool { return len(r.NewlyJustified) > 0 || len(r.NewlyFinalized) > 0 }

func TestJustificationRequiresSupermajority(t *testing.T) {
	e := NewEngine(types.RootFromUint64(0))
	tgt := cp(1, 10)
	res := e.ProcessTally(1, tally(link(cp(0, 0), tgt), 66), 100, 1)
	if advanced(res) {
		t.Errorf("2/3 not exceeded but advanced: %+v", res)
	}
	res = e.ProcessTally(1, tally(link(cp(0, 0), tgt), 67), 100, 1)
	if len(res.NewlyJustified) != 1 || res.NewlyJustified[0] != tgt {
		t.Errorf("justification missing: %+v", res)
	}
	if e.LatestJustified() != tgt {
		t.Errorf("latest justified = %v, want %v", e.LatestJustified(), tgt)
	}
}

func TestJustificationRequiresJustifiedSource(t *testing.T) {
	e := NewEngine(types.RootFromUint64(0))
	// Source cp(1,10) was never justified.
	res := e.ProcessTally(2, tally(link(cp(1, 10), cp(2, 20)), 100), 100, 2)
	if advanced(res) {
		t.Errorf("unjustified source must not justify target: %+v", res)
	}
}

func TestConsecutiveJustificationFinalizes(t *testing.T) {
	e := NewEngine(types.RootFromUint64(0))
	g := cp(0, 0)
	c1 := cp(1, 10)
	// Link 0 -> 1: justifies c1 AND finalizes genesis (consecutive).
	res := e.ProcessTally(1, tally(link(g, c1), 80), 100, 1)
	if len(res.NewlyFinalized) != 1 || res.NewlyFinalized[0] != g {
		t.Fatalf("genesis not finalized: %+v", res)
	}
	c2 := cp(2, 20)
	res = e.ProcessTally(2, tally(link(c1, c2), 80), 100, 2)
	if len(res.NewlyFinalized) != 1 || res.NewlyFinalized[0] != c1 {
		t.Fatalf("c1 not finalized: %+v", res)
	}
	if e.Finalized() != c1 {
		t.Errorf("finalized = %v, want %v", e.Finalized(), c1)
	}
	if e.lastFinalizedAt != 2 {
		t.Errorf("lastFinalizedAt = %d, want 2", e.lastFinalizedAt)
	}
}

func TestSkippedEpochJustifiesButDoesNotFinalize(t *testing.T) {
	e := NewEngine(types.RootFromUint64(0))
	g := cp(0, 0)
	c2 := cp(2, 20)
	// Link 0 -> 2 (skipping epoch 1): justified, not finalized.
	res := e.ProcessTally(2, tally(link(g, c2), 80), 100, 2)
	if len(res.NewlyJustified) != 1 {
		t.Fatalf("c2 should be justified: %+v", res)
	}
	if len(res.NewlyFinalized) != 0 {
		t.Fatalf("non-consecutive link must not finalize: %+v", res)
	}
	if e.Finalized() != g {
		t.Errorf("finalized = %v, want genesis", e.Finalized())
	}
}

func TestAlternatingJustificationNeverFinalizes(t *testing.T) {
	// Paper Section 3.2: "if justification occurs only every other epoch,
	// finalization is not possible". This is the semi-active Byzantine
	// stalling pattern.
	e := NewEngine(types.RootFromUint64(0))
	prev := cp(0, 0)
	for epoch := uint64(2); epoch <= 10; epoch += 2 {
		tgt := cp(epoch, epoch*10)
		res := e.ProcessTally(types.Epoch(epoch), tally(link(prev, tgt), 80), 100, types.Epoch(epoch))
		if len(res.NewlyJustified) != 1 {
			t.Fatalf("epoch %d not justified", epoch)
		}
		if len(res.NewlyFinalized) != 0 {
			t.Fatalf("every-other-epoch justification must not finalize (epoch %d)", epoch)
		}
		prev = tgt
	}
	if e.Finalized() != cp(0, 0) {
		t.Errorf("finalized advanced to %v", e.Finalized())
	}
}

func TestProcessEpochIgnoresOtherTargetEpochs(t *testing.T) {
	e := NewEngine(types.RootFromUint64(0))
	res := e.ProcessTally(2, tally(link(cp(0, 0), cp(1, 10)), 100), 100, 2) // wrong epoch
	if advanced(res) {
		t.Errorf("links for other epochs must be ignored: %+v", res)
	}
}

func TestProcessEpochZeroTotal(t *testing.T) {
	e := NewEngine(types.RootFromUint64(0))
	if res := e.ProcessTally(1, tally(link(cp(0, 0), cp(1, 10)), 10), 0, 1); advanced(res) {
		t.Error("zero total stake must not justify anything")
	}
}

func TestEpochsSinceFinalityAndLeak(t *testing.T) {
	e := NewEngine(types.RootFromUint64(0))
	spec := types.DefaultSpec()
	if e.EpochsSinceFinality(0) != 0 {
		t.Error("no gap at epoch 0")
	}
	if e.InLeak(4, spec) {
		t.Error("gap of 4 is not yet a leak")
	}
	if !e.InLeak(5, spec) {
		t.Error("gap of 5 must be a leak")
	}
	// Finalize at epoch 6: gap resets.
	e.ProcessTally(1, tally(link(cp(0, 0), cp(1, 10)), 80), 100, 6)
	if e.EpochsSinceFinality(6) != 0 {
		t.Errorf("gap after finalization = %d, want 0", e.EpochsSinceFinality(6))
	}
	if e.InLeak(10, spec) {
		t.Error("gap of 4 after refinalization is not a leak")
	}
	if !e.InLeak(11, spec) {
		t.Error("gap of 5 after refinalization must be a leak")
	}
}

func TestCloneIndependence(t *testing.T) {
	e := NewEngine(types.RootFromUint64(0))
	c := e.Clone()
	c.ProcessTally(1, tally(link(cp(0, 0), cp(1, 10)), 80), 100, 1)
	if e.Justified(cp(1, 10)) {
		t.Error("clone mutation leaked into original")
	}
	if e.LatestJustified() != cp(0, 0) {
		t.Error("original latest justified must be unchanged")
	}
}

func TestCheckConflict(t *testing.T) {
	// Ancestry oracle: root(1) is ancestor of root(2); root(3) is on
	// another branch.
	isAncestor := func(a, d types.Root) bool {
		type pair struct{ a, d types.Root }
		rel := map[pair]bool{
			{types.RootFromUint64(1), types.RootFromUint64(2)}: true,
		}
		return a == d || rel[pair{a, d}]
	}
	a := cp(5, 1)
	b := cp(6, 2)
	if err := CheckConflict(a, b, isAncestor); err != nil {
		t.Errorf("compatible checkpoints flagged: %v", err)
	}
	if err := CheckConflict(a, a, isAncestor); err != nil {
		t.Errorf("identical checkpoints flagged: %v", err)
	}
	c := cp(6, 3)
	if err := CheckConflict(a, c, isAncestor); !errors.Is(err, ErrConflictingFinality) {
		t.Errorf("conflicting checkpoints not flagged: %v", err)
	}
}

func TestTwoViewsConflictingFinalization(t *testing.T) {
	// Integration-flavored: two partitioned views finalize different
	// branches; CheckConflict detects the Safety violation.
	viewA := NewEngine(types.RootFromUint64(0))
	viewB := viewA.Clone()
	g := cp(0, 0)
	a1, a2 := cp(1, 11), cp(2, 12)
	b1, b2 := cp(1, 21), cp(2, 22)
	viewA.ProcessTally(1, tally(link(g, a1), 80), 100, 1)
	viewA.ProcessTally(2, tally(link(a1, a2), 80), 100, 2)
	viewB.ProcessTally(1, tally(link(g, b1), 80), 100, 1)
	viewB.ProcessTally(2, tally(link(b1, b2), 80), 100, 2)
	if viewA.Finalized() != a1 || viewB.Finalized() != b1 {
		t.Fatalf("finalization did not advance: %v / %v", viewA.Finalized(), viewB.Finalized())
	}
	isAncestor := func(a, d types.Root) bool { return a == d }
	if err := CheckConflict(viewA.Finalized(), viewB.Finalized(), isAncestor); !errors.Is(err, ErrConflictingFinality) {
		t.Errorf("conflicting finalization not detected: %v", err)
	}
}
