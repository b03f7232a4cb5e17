package attestation

import (
	"bytes"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/types"
	"repro/internal/validator"
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

// voted reports whether v cast any vote with target epoch e.
func voted(p *Pool, e types.Epoch, v types.ValidatorIndex) bool {
	ev := p.find(e)
	return ev != nil && len(ev.AppendVotes(nil, v)) > 0
}

// targetWeights sums stake per (source, target) pair for target epoch e
// from the materialized votes, an equivocator counting toward every
// distinct pair it voted for: the map-form reference AppendLinkTally is
// tested against.
func targetWeights(p *Pool, e types.Epoch, stake func(types.ValidatorIndex) types.Gwei) map[Link]types.Gwei {
	out := make(map[Link]types.Gwei)
	for v, datas := range p.VotesForEpoch(e) {
		seen := make(map[Link]bool, len(datas))
		for _, d := range datas {
			l := Link{Source: d.Source, Target: d.Target}
			if seen[l] {
				continue
			}
			seen[l] = true
			out[l] += stake(types.ValidatorIndex(v))
		}
	}
	return out
}

// linkWeights is AppendLinkTally's tally of target epoch e as a map.
func linkWeights(p *Pool, e types.Epoch, stake func(types.ValidatorIndex) types.Gwei) map[Link]types.Gwei {
	out := make(map[Link]types.Gwei)
	for _, lw := range p.AppendLinkTally(nil, e, stake) {
		out[lw.Link] += lw.Weight
	}
	return out
}

func TestPoolAddDeduplicates(t *testing.T) {
	p := new(Pool)
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
	p := new(Pool)
	// Same validator, same target epoch, two different target roots: a
	// double vote. The pool must retain both.
	p.Add(att(1, 33, 5, cp(0, 0), cp(1, 5)))
	p.Add(att(1, 33, 6, cp(0, 0), cp(1, 6)))
	if got := len(p.VotesForEpoch(1)[1]); got != 2 {
		t.Errorf("stored votes = %d, want 2 (equivocation retained)", got)
	}
}

func TestVoted(t *testing.T) {
	p := new(Pool)
	p.Add(att(3, 33, 5, cp(0, 0), cp(1, 5)))
	if !voted(p, 1, 3) {
		t.Error("validator 3 voted in epoch 1")
	}
	if voted(p, 1, 4) {
		t.Error("validator 4 did not vote")
	}
	if voted(p, 2, 3) {
		t.Error("validator 3 did not vote in epoch 2")
	}
}

// TestVotedForTarget: the paper's activity criterion, as Activity's column
// reads it — a validator is active on a branch for an epoch iff it cast a
// vote whose target root is that branch's; an epoch the pool does not
// hold has an empty column.
func TestVotedForTarget(t *testing.T) {
	p := new(Pool)
	p.Add(att(3, 33, 5, cp(0, 0), cp(1, 5)))
	var a Activity
	if active := p.Activity(&a, 1, types.RootFromUint64(5)); len(active) <= 3 || !active[3] || active[2] {
		t.Errorf("vote for target 5: column %v, want validator 3 alone active", active)
	}
	if active := p.Activity(&a, 1, types.RootFromUint64(6)); len(active) > 3 && active[3] {
		t.Error("vote for target 6 should not be found")
	}
	if active := p.Activity(&a, 2, types.RootFromUint64(5)); len(active) != 0 {
		t.Errorf("epoch 2 holds no votes, column %v", active)
	}
}

func TestTargetWeights(t *testing.T) {
	p := new(Pool)
	src := cp(0, 0)
	tgtA := cp(1, 10)
	tgtB := cp(1, 20)
	p.Add(att(1, 33, 10, src, tgtA))
	p.Add(att(2, 33, 10, src, tgtA))
	p.Add(att(3, 34, 20, src, tgtB))
	stake := func(v types.ValidatorIndex) types.Gwei { return types.Gwei(v) * 100 }
	w := linkWeights(p, 1, stake)
	if got := w[Link{Source: src, Target: tgtA}]; got != 300 {
		t.Errorf("weight A = %d, want 300", got)
	}
	if got := w[Link{Source: src, Target: tgtB}]; got != 300 {
		t.Errorf("weight B = %d, want 300", got)
	}
}

func TestTargetWeightsEquivocatorCountsOnBothBranches(t *testing.T) {
	p := new(Pool)
	src := cp(0, 0)
	tgtA := cp(1, 10)
	tgtB := cp(1, 20)
	// Validator 1 double votes.
	p.Add(att(1, 33, 10, src, tgtA))
	p.Add(att(1, 33, 20, src, tgtB))
	stake := func(types.ValidatorIndex) types.Gwei { return 32 }
	w := linkWeights(p, 1, stake)
	if w[Link{Source: src, Target: tgtA}] != 32 || w[Link{Source: src, Target: tgtB}] != 32 {
		t.Errorf("equivocator must count on both branches: %v", w)
	}
}

func TestTargetWeightsDuplicateLinkCountsOnce(t *testing.T) {
	p := new(Pool)
	src := cp(0, 0)
	tgt := cp(1, 10)
	// Same link with different heads/slots: one FFG vote only.
	p.Add(att(1, 33, 10, src, tgt))
	p.Add(att(1, 34, 11, src, tgt))
	stake := func(types.ValidatorIndex) types.Gwei { return 32 }
	w := linkWeights(p, 1, stake)
	if got := w[Link{Source: src, Target: tgt}]; got != 32 {
		t.Errorf("duplicate link weight = %d, want 32", got)
	}
}

func TestPrune(t *testing.T) {
	p := new(Pool)
	p.Add(att(1, 33, 5, cp(0, 0), cp(1, 5)))
	p.Add(att(1, 65, 6, cp(1, 5), cp(2, 6)))
	p.Add(att(1, 97, 7, cp(2, 6), cp(3, 7)))
	p.Prune(2)
	if len(p.Retained()) != 2 {
		t.Errorf("epochs after prune = %d, want 2", len(p.Retained()))
	}
	if voted(p, 1, 1) {
		t.Error("epoch 1 should be pruned")
	}
	if !voted(p, 3, 1) {
		t.Error("epoch 3 must survive prune")
	}
}

// TestWidenZeroesWhatItAdds: a column lengthened within its capacity reads
// zero, no vote, past its old length, whatever that storage held before;
// one lengthened past its capacity is copied whole.
func TestWidenZeroesWhatItAdds(t *testing.T) {
	held := []uint32{1, 2, 3, 4, 5, 6}
	if got := widen(held[:2], 5); !reflect.DeepEqual(got, []uint32{1, 2, 0, 0, 0}) || &got[0] != &held[0] {
		t.Errorf("widened within its capacity to %v (in place %t), want [1 2 0 0 0] in place", got, &got[0] == &held[0])
	}
	if got := widen(held[:2:2], 4); !reflect.DeepEqual(got, []uint32{1, 2, 0, 0}) || &got[0] == &held[0] {
		t.Errorf("widened past its capacity to %v (in place %t), want [1 2 0 0] in new storage", got, &got[0] == &held[0])
	}
}

// TestPrunedEpochStorageIsReusedClean: the next new target epoch takes over
// a pruned epoch's storage, and nothing the pruned epoch recorded — votes,
// an equivocation with its second column and spill, the source range —
// shows in it: the reusing pool reads, and encodes, exactly like a pool
// that allocated the epoch afresh.
func TestPrunedEpochStorageIsReusedClean(t *testing.T) {
	late := []Attestation{
		att(2, 290, 7, cp(8, 3), cp(9, 7)),
		att(6, 290, 7, cp(8, 3), cp(9, 7)),
	}
	fresh := new(Pool)
	reused := new(Pool)
	// Epoch 1: validators 0..7 vote; validator 2 casts three distinct votes.
	for v := uint64(0); v < 8; v++ {
		reused.Add(att(v, 33, 5, cp(0, 0), cp(1, 5)))
	}
	reused.Add(att(2, 33, 6, cp(0, 0), cp(1, 6)))
	reused.Add(att(2, 34, 6, cp(0, 0), cp(1, 6)))
	if !reused.Retained()[0].Equivocated() {
		t.Fatal("the planted equivocation was not recorded")
	}
	pruned := reused.Retained()[0]
	before := reused.Bytes()
	reused.Prune(2)
	if len(reused.Retained()) != 0 || reused.Bytes() != before {
		t.Fatalf("after the prune: %d epochs, %d bytes held; want 0 epochs and the pruned epoch's %d bytes kept as a spare", len(reused.Retained()), reused.Bytes(), before)
	}
	for _, a := range late {
		fresh.Add(a)
		reused.Add(a)
	}
	ev := reused.Retained()[0]
	if ev != pruned {
		t.Fatal("epoch 9 did not take over the pruned epoch's storage")
	}
	if ev.Epoch() != 9 || ev.Equivocated() || len(ev.Values()) != 1 {
		t.Fatalf("reused epoch: number %d, equivocated %t, %d values; want 9, false, 1", ev.Epoch(), ev.Equivocated(), len(ev.Values()))
	}
	if lo, hi := ev.SourceRange(); lo != 8 || hi != 8 {
		t.Errorf("reused epoch's source range %d..%d, want 8..8", lo, hi)
	}
	if got := ev.AppendVotes(nil, 2); len(got) != 1 {
		t.Errorf("the pruned equivocator holds %d votes in the reused epoch, want 1", len(got))
	}
	for v := uint64(0); v < 8; v++ {
		if got, want := voted(reused, 9, types.ValidatorIndex(v)), v == 2 || v == 6; got != want {
			t.Errorf("validator %d voted in the reused epoch = %t, want %t", v, got, want)
		}
	}
	if !bytes.Equal(encodePool(fresh), encodePool(reused)) {
		t.Error("a pool that reused a pruned epoch's storage encodes differently from one that allocated afresh")
	}
	if c := reused.Clone(); c.Bytes() > reused.Bytes() || len(c.spares) != 0 {
		t.Errorf("clone holds %d bytes and %d spares; want no more than the original's %d and none", c.Bytes(), len(c.spares), reused.Bytes())
	}
}

// TestResetSizesEachColumnOnce: a pool told its validator count gives a new
// epoch's id column that length at the first vote, so batches naming higher
// validators never regrow it, and the boundary's tally stops at the highest
// voter however long the column is. Reset hands the epochs to the next run
// as spares, and the reset pool reads, tallies and encodes like a new one.
func TestResetSizesEachColumnOnce(t *testing.T) {
	p := new(Pool)
	p.Reset(64)
	vote := func(p *Pool, v uint64) {
		a := att(v, 32+v%32, 5, cp(0, 0), cp(1, 5))
		p.AddBatch(nil, a.Data, []types.ValidatorIndex{a.Validator})
	}
	vote(p, 0)
	first := &p.Retained()[0].first[0]
	for v := uint64(1); v < 64; v++ {
		vote(p, v)
	}
	if ev := p.Retained()[0]; len(ev.first) != 64 || &ev.first[0] != first {
		t.Fatalf("epoch column %d long, regrown %t; want 64, sized once", len(ev.first), &ev.first[0] != first)
	}

	p.Reset(32)
	if len(p.Retained()) != 0 || len(p.spares) != 1 {
		t.Fatalf("after Reset(32): %d epochs, %d spares; want the epoch kept as a spare", len(p.Retained()), len(p.spares))
	}
	fresh := new(Pool)
	for v := uint64(0); v < 32; v += 3 {
		vote(p, v)
		vote(fresh, v)
	}
	if p.Retained()[0].first[0] == 0 || voted(p, 1, 1) {
		t.Fatal("the reset pool lost a vote or kept one from its last run")
	}
	stake := func(types.ValidatorIndex) types.Gwei { return 1 }
	if got, want := p.AppendLinkTally(nil, 1, stake), fresh.AppendLinkTally(nil, 1, stake); !reflect.DeepEqual(got, want) || p.Retained()[0].voted != 31 {
		t.Errorf("reset pool tallies %v over %d voters, want %v over 31", got, p.Retained()[0].voted, want)
	}
	if !bytes.Equal(encodePool(fresh), encodePool(p)) {
		t.Error("a reset pool encodes differently from a new one")
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
	p := new(Pool)
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

	want := targetWeights(p, 1, stake)
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

// orderedTally is the tally of target epoch e row for row, as the boundary
// must produce it: ascending validators, each one's votes in arrival order,
// a validator's stake counted once per distinct link it voted for, and a
// row appended when its link first gets weight.
func orderedTally(p *Pool, e types.Epoch, stake func(types.ValidatorIndex) types.Gwei) []LinkWeight {
	var rows []LinkWeight
	for v, datas := range p.VotesForEpoch(e) {
		w := stake(types.ValidatorIndex(v))
		if w == 0 {
			continue
		}
		var mine []Link
		for _, d := range datas {
			l := Link{Source: d.Source, Target: d.Target}
			if slices.Contains(mine, l) {
				continue
			}
			mine = append(mine, l)
			i := slices.IndexFunc(rows, func(r LinkWeight) bool { return r.Link == l })
			if i < 0 {
				i = len(rows)
				rows = append(rows, LinkWeight{Link: l})
			}
			rows[i].Weight += w
		}
	}
	return rows
}

// TestWindowTallyMatchesLinkTallies tallies a four-epoch window from the
// registry columns and holds each epoch's rows to AppendLinkTally with the
// registry's Stake, to orderedTally row for row, and to the map reference.
// The epochs are voted up to different widths, in shuffled arrival order so
// that vote ids do not follow validator order; some validators equivocate
// with two distinct votes, some with four (the spill), some of those on one
// link twice; one voter is slashed, one ejected, two lie past the registry;
// and one tally already holds a row for a link the epoch also has, which
// must stay as it is.
func TestWindowTallyMatchesLinkTallies(t *testing.T) {
	const validators, lo = 40, 5
	reg := new(validator.Registry)
	reg.Reset(validators-2, 0)
	cols := reg.Columns()
	for v := range cols.Stakes {
		cols.Stakes[v] = types.Gwei(100 + v)
	}
	_ = reg.Slash(5, 0)
	cols.Status[11] = validator.Ejected

	rng := rand.New(rand.NewSource(3))
	var atts []Attestation
	widths := [4]int{12, validators, 25, 31}
	for k, width := range widths {
		e := types.Epoch(lo + k)
		for v := 0; v < width; v++ {
			votes := 1
			switch {
			case v%7 == 3:
				votes = 2
			case v%9 == 4:
				votes = 4
			}
			for i := 0; i < votes; i++ {
				atts = append(atts, Attestation{Validator: types.ValidatorIndex(v), Data: Data{
					Slot:   e.StartSlot() + types.Slot(rng.Intn(4)),
					Head:   types.RootFromUint64(uint64(rng.Intn(3))),
					Source: cp(uint64(e)-1-uint64(rng.Intn(2)), 7),
					Target: cp(uint64(e), uint64(1+rng.Intn(2))),
				}})
			}
		}
	}
	rng.Shuffle(len(atts), func(i, j int) { atts[i], atts[j] = atts[j], atts[i] })
	p := new(Pool)
	for _, a := range atts {
		p.Add(a)
	}
	spilled := false
	for k, ev := range p.Retained() {
		if ev.voted != widths[k] || !ev.Equivocated() {
			t.Fatalf("epoch %d: %d voters, equivocated %t; want %d and true", ev.epoch, ev.voted, ev.Equivocated(), widths[k])
		}
		spilled = spilled || len(ev.spill) > 0
	}
	if !spilled {
		t.Fatal("no validator cast a third distinct vote")
	}

	held := LinkWeight{Link: Link{Source: cp(lo, 7), Target: cp(lo+1, 1)}, Weight: 1}
	window := make([][]LinkWeight, len(widths))
	window[1] = []LinkWeight{held}
	p.AppendWindowTally(window, lo, *reg.Columns(), reg.TotalStake())
	for k, got := range window {
		e := types.Epoch(lo + k)
		var want []LinkWeight
		if k == 1 {
			want = []LinkWeight{held}
		}
		if want = p.AppendLinkTally(want, e, reg.Stake); !slices.Equal(got, want) {
			t.Errorf("epoch %d: window tally\n  %v\nlink tally\n  %v", e, got, want)
		}
		if k == 1 {
			if !slices.ContainsFunc(got[1:], func(lw LinkWeight) bool { return lw.Link == held.Link }) {
				t.Fatalf("epoch %d: no vote for the link of the row the tally held", e)
			}
			if got[0] != held {
				t.Errorf("epoch %d: the row the tally already held became %v", e, got[0])
			}
			got = got[1:]
		}
		if want := orderedTally(p, e, reg.Stake); !slices.Equal(got, want) {
			t.Errorf("epoch %d: window tally\n  %v\nordered reference\n  %v", e, got, want)
		}
		weights := targetWeights(p, e, reg.Stake)
		maps.DeleteFunc(weights, func(_ Link, w types.Gwei) bool { return w == 0 })
		if len(got) != len(weights) {
			t.Errorf("epoch %d: %d rows, map reference %d links", e, len(got), len(weights))
		}
		for _, lw := range got {
			if weights[lw.Link] != lw.Weight {
				t.Errorf("epoch %d link %s: tally %d, map reference %d", e, lw.Link, lw.Weight, weights[lw.Link])
			}
		}
	}
}
