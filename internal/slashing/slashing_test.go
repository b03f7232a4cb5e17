package slashing

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/attestation"
	"repro/internal/codec"
	"repro/internal/types"
)

// observer is one observer's knowledge: the pool that holds the votes it
// has received and the detector that judges them.
type observer struct {
	pool *attestation.Pool
	*Detector
}

func newObserver() *observer {
	return &observer{pool: new(attestation.Pool), Detector: new(Detector)}
}

// Observe is a node's ingestion at length one: the vote goes to the pool,
// and to the detector if it was new there. It returns the evidence the
// vote completes, or nil.
func (o *observer) Observe(a attestation.Attestation) *Evidence {
	fresh := o.pool.AddBatch(nil, a.Data, []types.ValidatorIndex{a.Validator})
	if found := o.ObserveBatch(nil, o.pool, a.Data, fresh); len(found) > 0 {
		return &found[0]
	}
	return nil
}

func data(slot, head, srcEpoch, srcRoot, tgtEpoch, tgtRoot uint64) attestation.Data {
	return attestation.Data{
		Slot:   types.Slot(slot),
		Head:   types.RootFromUint64(head),
		Source: types.Checkpoint{Epoch: types.Epoch(srcEpoch), Root: types.RootFromUint64(srcRoot)},
		Target: types.Checkpoint{Epoch: types.Epoch(tgtEpoch), Root: types.RootFromUint64(tgtRoot)},
	}
}

func TestConflictDoubleVote(t *testing.T) {
	a := data(33, 1, 0, 0, 1, 10)
	b := data(33, 2, 0, 0, 1, 20) // same target epoch, different target root
	if got := Conflict(a, b); got != DoubleVote {
		t.Errorf("Conflict = %v, want DoubleVote", got)
	}
}

func TestConflictSurroundVote(t *testing.T) {
	outer := data(200, 1, 0, 0, 6, 10) // source epoch 0, target epoch 6
	inner := data(150, 2, 2, 5, 4, 20) // source epoch 2, target epoch 4
	if got := Conflict(outer, inner); got != SurroundVote {
		t.Errorf("Conflict(outer, inner) = %v, want SurroundVote", got)
	}
	if got := Conflict(inner, outer); got != SurroundVote {
		t.Errorf("Conflict(inner, outer) = %v, want SurroundVote", got)
	}
}

func TestConflictNoneForHonestSequence(t *testing.T) {
	// Consecutive honest votes: source = previous target, increasing
	// epochs. Never slashable.
	a := data(33, 1, 0, 0, 1, 10)
	b := data(65, 2, 1, 10, 2, 20)
	if got := Conflict(a, b); got != None {
		t.Errorf("Conflict = %v, want None", got)
	}
}

func TestConflictNoneForIdentical(t *testing.T) {
	a := data(33, 1, 0, 0, 1, 10)
	if got := Conflict(a, a); got != None {
		t.Errorf("identical data is not an offense, got %v", got)
	}
}

func TestConflictTouchingSpansNotSurround(t *testing.T) {
	// s1 == s2: spans share a source; not a surround.
	a := data(100, 1, 1, 5, 4, 10)
	b := data(120, 2, 1, 5, 3, 20)
	if got := Conflict(a, b); got != None {
		t.Errorf("shared source must not be surround, got %v", got)
	}
	// t2 == t1 with different epochs is impossible; t1 == s2 (adjacent)
	// is fine too:
	c := data(140, 3, 4, 10, 6, 30)
	if got := Conflict(a, c); got != None {
		t.Errorf("adjacent spans must not conflict, got %v", got)
	}
}

func TestDetectorReportsDoubleVoteOnce(t *testing.T) {
	d := newObserver()
	v := types.ValidatorIndex(5)
	if ev := d.Observe(attestation.Attestation{Validator: v, Data: data(33, 1, 0, 0, 1, 10)}); ev != nil {
		t.Fatalf("first vote produced evidence: %v", ev)
	}
	ev := d.Observe(attestation.Attestation{Validator: v, Data: data(33, 2, 0, 0, 1, 20)})
	if ev == nil || ev.Kind != DoubleVote || ev.Validator != v {
		t.Fatalf("double vote not detected: %v", ev)
	}
	if !d.Slashed(v) {
		t.Error("validator should be marked slashed")
	}
	// Further offenses by the same validator are not re-reported.
	if ev := d.Observe(attestation.Attestation{Validator: v, Data: data(33, 3, 0, 0, 1, 30)}); ev != nil {
		t.Errorf("already-slashed validator re-reported: %v", ev)
	}
}

func TestDetectorIgnoresDuplicates(t *testing.T) {
	d := newObserver()
	a := attestation.Attestation{Validator: 1, Data: data(33, 1, 0, 0, 1, 10)}
	d.Observe(a)
	if ev := d.Observe(a); ev != nil {
		t.Errorf("duplicate observation produced evidence: %v", ev)
	}
	if votes := d.pool.VotesForEpoch(1); len(votes[1]) != 1 {
		t.Errorf("the pool holds %d votes of validator 1, want 1", len(votes[1]))
	}
}

func TestDetectorSeparatesValidators(t *testing.T) {
	d := newObserver()
	d.Observe(attestation.Attestation{Validator: 1, Data: data(33, 1, 0, 0, 1, 10)})
	if ev := d.Observe(attestation.Attestation{Validator: 2, Data: data(33, 2, 0, 0, 1, 20)}); ev != nil {
		t.Errorf("votes by different validators must not conflict: %v", ev)
	}
}

func TestDetectorSurround(t *testing.T) {
	d := newObserver()
	v := types.ValidatorIndex(9)
	d.Observe(attestation.Attestation{Validator: v, Data: data(150, 2, 2, 5, 4, 20)})
	ev := d.Observe(attestation.Attestation{Validator: v, Data: data(200, 1, 0, 0, 6, 10)})
	if ev == nil || ev.Kind != SurroundVote {
		t.Fatalf("surround vote not detected: %v", ev)
	}
}

func TestDetectorHonestStreamNeverSlashed(t *testing.T) {
	// Property: an honest vote stream (source = previous target,
	// strictly increasing target epochs, one vote per epoch) never
	// triggers the detector.
	f := func(seed uint8) bool {
		d := newObserver()
		v := types.ValidatorIndex(1)
		prevRoot := uint64(0)
		for e := uint64(1); e < uint64(8)+uint64(seed%8); e++ {
			root := e*100 + uint64(seed)
			ev := d.Observe(attestation.Attestation{
				Validator: v,
				Data:      data(e*32+1, root, e-1, prevRoot, e, root),
			})
			if ev != nil {
				return false
			}
			prevRoot = root
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if None.String() != "none" || DoubleVote.String() != "double vote" || SurroundVote.String() != "surround vote" {
		t.Error("Kind.String mismatch")
	}
	ev := Evidence{Validator: 3, Kind: DoubleVote, First: data(33, 1, 0, 0, 1, 10), Second: data(33, 2, 0, 0, 1, 20)}
	if ev.String() == "" {
		t.Error("Evidence.String should be non-empty")
	}
}

// TestDetectorPruneBoundsHistory pins the long-horizon memory contract: the
// detector judges against what the pool retains and nothing else, so
// pruning the pool drops votes below the retention epoch from the detection
// window, keeps newer ones (still matching offenses against them), and
// never forgets reported offenders.
func TestDetectorPruneBoundsHistory(t *testing.T) {
	d := newObserver()
	att := func(v types.ValidatorIndex, tgt types.Epoch, root uint64) attestation.Attestation {
		return attestation.Attestation{Validator: v, Data: attestation.Data{
			Slot:   tgt.StartSlot(),
			Head:   types.RootFromUint64(root),
			Source: types.Checkpoint{Epoch: 0, Root: types.RootFromUint64(0)},
			Target: types.Checkpoint{Epoch: tgt, Root: types.RootFromUint64(root)},
		}}
	}
	for e := types.Epoch(1); e <= 20; e++ {
		for v := types.ValidatorIndex(1); v <= 2; v++ {
			if ev := d.Observe(att(v, e, uint64(e))); ev != nil {
				t.Fatalf("honest history produced evidence at epoch %d", e)
			}
		}
	}
	d.pool.Prune(13)
	if got := len(d.pool.Retained()); got != 8 {
		t.Fatalf("pool after prune holds %d epochs, want 8 (epochs 13-20)", got)
	}
	// A double vote against a RETAINED epoch is still caught...
	if ev := d.Observe(att(1, 18, 999)); ev == nil || ev.Kind != DoubleVote || ev.First != att(1, 18, 18).Data {
		t.Fatalf("double vote against retained epoch 18 not detected: %v", ev)
	}
	// ...one against a pruned epoch has nothing left to be proved with...
	if ev := d.Observe(att(2, 5, 999)); ev != nil || d.Slashed(2) {
		t.Fatalf("double vote against pruned epoch 5 reported: %v", ev)
	}
	// ...and the offender stays marked through further pruning.
	d.pool.Prune(30)
	if !d.Slashed(1) {
		t.Error("prune forgot a reported offender")
	}
}

// TestDetectorLongHistoriesKeepArrivalOrder: however many votes the pool
// holds of a validator — forty target epochs, four distinct votes in one of
// them, the third and fourth in the epoch's spill — the vote an offense is
// proved against is the conflicting one with the lowest target epoch and,
// there, the earliest to arrive; re-delivery is not a vote; clones and
// decoded frames carry the marks and nothing else.
func TestDetectorLongHistoriesKeepArrivalOrder(t *testing.T) {
	// An honest chain of votes: epoch e has source e-1, so no two conflict.
	vote := func(e uint64) attestation.Data { return data(e*32, e, e-1, e-1, e, e) }
	observe := func(d *observer, v types.ValidatorIndex, a attestation.Data) *Evidence {
		return d.Observe(attestation.Attestation{Validator: v, Data: a})
	}
	const full, twin, even = types.ValidatorIndex(3), types.ValidatorIndex(4), types.ValidatorIndex(5)
	d := newObserver()
	for e := uint64(1); e <= 40; e++ {
		for _, v := range []types.ValidatorIndex{full, twin, even} {
			if v == even && e%2 == 1 {
				continue
			}
			if ev := observe(d, v, vote(e)); ev != nil {
				t.Fatalf("validator %d: honest vote for epoch %d reported: %v", v, e, ev)
			}
		}
	}
	// Re-delivery of a held vote is not a new vote.
	if ev := observe(d, full, vote(33)); ev != nil || len(d.pool.VotesForEpoch(33)[full]) != 1 {
		t.Fatalf("duplicate of a held vote: evidence %v", ev)
	}
	// A double vote, proved against the one vote held for that epoch.
	double := data(30*32, 999, 29, 29, 30, 999)
	if ev := observe(d, full, double); ev == nil || ev.Kind != DoubleVote || ev.First != vote(30) {
		t.Fatalf("double vote against epoch 30: %v", ev)
	}
	// A vote surrounding epochs 11..34: proved against the lowest.
	wide := data(35*32, 998, 9, 9, 35, 998)
	if ev := observe(d, twin, wide); ev == nil || ev.Kind != SurroundVote || ev.First != vote(11) {
		t.Fatalf("surround of epochs 11..34: %v", ev)
	}
	// A vote inside one held for a later epoch: a fresh validator's vote for
	// epoch 40 reaches back to epoch 2, its next is the honest one for 20.
	const late = types.ValidatorIndex(6)
	observe(d, late, data(40*32, 997, 2, 2, 40, 997))
	if ev := observe(d, late, vote(20)); ev == nil || ev.Kind != SurroundVote || ev.First.Target.Epoch != 40 {
		t.Fatalf("vote inside an earlier, wider one: %v", ev)
	}

	// Four distinct votes for epoch 50 by a validator nobody was watching:
	// the pool files the third and fourth in the epoch's spill. Only those
	// two reach back past epoch 45, and the third arrived first.
	const many = types.ValidatorIndex(7)
	inEpoch50 := []attestation.Data{
		data(50*32, 1, 49, 49, 50, 1),
		data(50*32, 2, 49, 49, 50, 2),
		data(50*32, 3, 44, 44, 50, 3),
		data(50*32, 4, 43, 43, 50, 4),
	}
	for _, a := range inEpoch50 {
		d.pool.Add(attestation.Attestation{Validator: many, Data: a})
	}
	if ev := observe(d, many, data(47*32, 5, 45, 45, 47, 5)); ev == nil || ev.Kind != SurroundVote || ev.First != inEpoch50[2] {
		t.Fatalf("surround by a vote held in the spill: %v", ev)
	}

	clone := d.Clone()
	decoded, c := new(Detector), codec.NewDecoder(bytes.NewReader(encodeDetector(d.Detector)))
	if decoded.Walk(c); c.Err() != nil {
		t.Fatalf("frame does not decode: %v", c.Err())
	}
	for name, other := range map[string]*Detector{"clone": clone, "decoded": decoded} {
		for v := types.ValidatorIndex(0); v < 10; v++ {
			if other.Slashed(v) != d.Slashed(v) {
				t.Fatalf("%s: validator %d marked %t, original %t", name, v, other.Slashed(v), d.Slashed(v))
			}
		}
	}
	// A mark one copy makes is its own: the even voter's second vote for
	// epoch 38 is seen by the clone alone.
	second := data(38*32, 996, 37, 37, 38, 996)
	fresh := d.pool.AddBatch(nil, second, []types.ValidatorIndex{even})
	if found := clone.ObserveBatch(nil, d.pool, second, fresh); len(found) != 1 || !clone.Slashed(even) {
		t.Fatalf("clone: double vote for epoch 38: %v", found)
	}
	if d.Slashed(even) || decoded.Slashed(even) {
		t.Fatal("a mark the clone made shows in the original or the decoded copy")
	}
	d.pool.Prune(100)
	for _, v := range []types.ValidatorIndex{full, twin, late, many} {
		if !d.Slashed(v) {
			t.Errorf("prune forgot reported offender %d", v)
		}
	}
}
