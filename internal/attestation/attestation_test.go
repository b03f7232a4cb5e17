package attestation

import (
	"testing"

	"repro/internal/types"
)

func cp(epoch uint64, root uint64) types.Checkpoint {
	return types.Checkpoint{Epoch: types.Epoch(epoch), Root: types.RootFromUint64(root)}
}

func att(v uint64, slot uint64, head uint64, src, tgt types.Checkpoint) Attestation {
	return Attestation{
		Validator: types.ValidatorIndex(v),
		Data: Data{
			Slot:   types.Slot(slot),
			Head:   types.RootFromUint64(head),
			Source: src,
			Target: tgt,
		},
	}
}

func TestPoolAddDeduplicates(t *testing.T) {
	p := NewPool()
	a := att(1, 33, 5, cp(0, 0), cp(1, 5))
	if !p.Add(a) {
		t.Error("first add should be new")
	}
	if p.Add(a) {
		t.Error("second add of identical attestation should be ignored")
	}
	if got := len(p.VotesForEpoch(1)[1]); got != 1 {
		t.Errorf("stored votes = %d, want 1", got)
	}
}

func TestPoolKeepsEquivocations(t *testing.T) {
	p := NewPool()
	// Same validator, same target epoch, two different target roots: a
	// double vote. The pool must retain both.
	p.Add(att(1, 33, 5, cp(0, 0), cp(1, 5)))
	p.Add(att(1, 33, 6, cp(0, 0), cp(1, 6)))
	if got := len(p.VotesForEpoch(1)[1]); got != 2 {
		t.Errorf("stored votes = %d, want 2 (equivocation retained)", got)
	}
}

func TestVoted(t *testing.T) {
	p := NewPool()
	p.Add(att(3, 33, 5, cp(0, 0), cp(1, 5)))
	if !p.Voted(1, 3) {
		t.Error("validator 3 voted in epoch 1")
	}
	if p.Voted(1, 4) {
		t.Error("validator 4 did not vote")
	}
	if p.Voted(2, 3) {
		t.Error("validator 3 did not vote in epoch 2")
	}
}

func TestVotedForTarget(t *testing.T) {
	p := NewPool()
	p.Add(att(3, 33, 5, cp(0, 0), cp(1, 5)))
	if !p.VotedForTarget(1, 3, types.RootFromUint64(5)) {
		t.Error("vote for target 5 not found")
	}
	if p.VotedForTarget(1, 3, types.RootFromUint64(6)) {
		t.Error("vote for target 6 should not be found")
	}
}

func TestTargetWeights(t *testing.T) {
	p := NewPool()
	src := cp(0, 0)
	tgtA := cp(1, 10)
	tgtB := cp(1, 20)
	p.Add(att(1, 33, 10, src, tgtA))
	p.Add(att(2, 33, 10, src, tgtA))
	p.Add(att(3, 34, 20, src, tgtB))
	stake := func(v types.ValidatorIndex) types.Gwei { return types.Gwei(v) * 100 }
	w := p.TargetWeights(1, stake)
	if got := w[Link{Source: src, Target: tgtA}]; got != 300 {
		t.Errorf("weight A = %d, want 300", got)
	}
	if got := w[Link{Source: src, Target: tgtB}]; got != 300 {
		t.Errorf("weight B = %d, want 300", got)
	}
}

func TestTargetWeightsEquivocatorCountsOnBothBranches(t *testing.T) {
	p := NewPool()
	src := cp(0, 0)
	tgtA := cp(1, 10)
	tgtB := cp(1, 20)
	// Validator 1 double votes.
	p.Add(att(1, 33, 10, src, tgtA))
	p.Add(att(1, 33, 20, src, tgtB))
	stake := func(types.ValidatorIndex) types.Gwei { return 32 }
	w := p.TargetWeights(1, stake)
	if w[Link{Source: src, Target: tgtA}] != 32 || w[Link{Source: src, Target: tgtB}] != 32 {
		t.Errorf("equivocator must count on both branches: %v", w)
	}
}

func TestTargetWeightsDuplicateLinkCountsOnce(t *testing.T) {
	p := NewPool()
	src := cp(0, 0)
	tgt := cp(1, 10)
	// Same link with different heads/slots: one FFG vote only.
	p.Add(att(1, 33, 10, src, tgt))
	p.Add(att(1, 34, 11, src, tgt))
	stake := func(types.ValidatorIndex) types.Gwei { return 32 }
	w := p.TargetWeights(1, stake)
	if got := w[Link{Source: src, Target: tgt}]; got != 32 {
		t.Errorf("duplicate link weight = %d, want 32", got)
	}
}

func TestPrune(t *testing.T) {
	p := NewPool()
	p.Add(att(1, 33, 5, cp(0, 0), cp(1, 5)))
	p.Add(att(1, 65, 6, cp(1, 5), cp(2, 6)))
	p.Add(att(1, 97, 7, cp(2, 6), cp(3, 7)))
	p.Prune(2)
	if p.Epochs() != 2 {
		t.Errorf("epochs after prune = %d, want 2", p.Epochs())
	}
	if p.Voted(1, 1) {
		t.Error("epoch 1 should be pruned")
	}
	if !p.Voted(3, 1) {
		t.Error("epoch 3 must survive prune")
	}
}

func TestAttestationString(t *testing.T) {
	a := att(1, 33, 5, cp(0, 0), cp(1, 5))
	if a.String() == "" {
		t.Error("String should be non-empty")
	}
	l := Link{Source: cp(0, 0), Target: cp(1, 5)}
	if l.String() == "" {
		t.Error("Link.String should be non-empty")
	}
}

// TestAppendLinkTallyMatchesTargetWeights pins the columnar boundary path
// against the map tally: same links, same weights, equivocators counted
// once per distinct link, duplicate links of one validator deduplicated.
func TestAppendLinkTallyMatchesTargetWeights(t *testing.T) {
	p := NewPool()
	stake := func(v types.ValidatorIndex) types.Gwei { return types.Gwei(10 + v) }
	src := types.Checkpoint{Epoch: 0, Root: types.RootFromUint64(1)}
	tgtA := types.Checkpoint{Epoch: 1, Root: types.RootFromUint64(2)}
	tgtB := types.Checkpoint{Epoch: 1, Root: types.RootFromUint64(3)}
	add := func(v types.ValidatorIndex, slot types.Slot, tgt types.Checkpoint) {
		p.Add(Attestation{Validator: v, Data: Data{Slot: slot, Head: tgt.Root, Source: src, Target: tgt}})
	}
	add(0, 32, tgtA)
	add(1, 33, tgtA)
	add(2, 32, tgtB)
	// Equivocator: both branches, plus a second distinct data value on the
	// same link (different slot) that must NOT double its link weight.
	add(3, 32, tgtA)
	add(3, 32, tgtB)
	add(3, 40, tgtA)

	want := p.TargetWeights(1, stake)
	tally := p.AppendLinkTally(nil, 1, stake)
	if len(tally) != len(want) {
		t.Fatalf("tally has %d links, map has %d", len(tally), len(want))
	}
	for _, lw := range tally {
		if want[lw.Link] != lw.Weight {
			t.Errorf("link %s: tally %d, map %d", lw.Link, lw.Weight, want[lw.Link])
		}
	}
	// Scratch reuse: appending into recovered capacity must not grow.
	scratch := tally[:0]
	again := p.AppendLinkTally(scratch, 1, stake)
	if &again[0] != &tally[0] {
		t.Error("tally with sufficient capacity reallocated its scratch")
	}
	if p.AppendLinkTally(nil, 99, stake) != nil {
		t.Error("empty epoch must produce an empty tally")
	}
}
