package slashing

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/attestation"
	"repro/internal/codec"
	"repro/internal/types"
)

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
	d := NewDetector()
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
	d := NewDetector()
	a := attestation.Attestation{Validator: 1, Data: data(33, 1, 0, 0, 1, 10)}
	d.Observe(a)
	if ev := d.Observe(a); ev != nil {
		t.Errorf("duplicate observation produced evidence: %v", ev)
	}
	if d.HistoryLen(1) != 1 {
		t.Errorf("history len = %d, want 1", d.HistoryLen(1))
	}
}

func TestDetectorSeparatesValidators(t *testing.T) {
	d := NewDetector()
	d.Observe(attestation.Attestation{Validator: 1, Data: data(33, 1, 0, 0, 1, 10)})
	if ev := d.Observe(attestation.Attestation{Validator: 2, Data: data(33, 2, 0, 0, 1, 20)}); ev != nil {
		t.Errorf("votes by different validators must not conflict: %v", ev)
	}
}

func TestDetectorSurround(t *testing.T) {
	d := NewDetector()
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
		d := NewDetector()
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

// TestDetectorPruneBoundsHistory pins the long-horizon memory contract:
// pruning drops votes below the retention epoch, keeps newer ones (still
// matching offenses against them), and never forgets reported offenders.
func TestDetectorPruneBoundsHistory(t *testing.T) {
	d := NewDetector()
	att := func(v types.ValidatorIndex, tgt types.Epoch, root uint64) attestation.Attestation {
		return attestation.Attestation{Validator: v, Data: attestation.Data{
			Slot:   tgt.StartSlot(),
			Head:   types.RootFromUint64(root),
			Source: types.Checkpoint{Epoch: 0, Root: types.RootFromUint64(0)},
			Target: types.Checkpoint{Epoch: tgt, Root: types.RootFromUint64(root)},
		}}
	}
	for e := types.Epoch(1); e <= 20; e++ {
		if ev := d.Observe(att(1, e, uint64(e))); ev != nil {
			t.Fatalf("honest history produced evidence at epoch %d", e)
		}
	}
	d.Prune(13)
	if got := d.HistoryLen(1); got != 8 {
		t.Fatalf("history after prune = %d votes, want 8 (epochs 13-20)", got)
	}
	// A double vote against a RETAINED epoch is still caught...
	if ev := d.Observe(att(1, 18, 999)); ev == nil || ev.Kind != DoubleVote {
		t.Fatalf("double vote against retained epoch 18 not detected: %v", ev)
	}
	// ...and the offender stays marked through further pruning.
	d.Prune(30)
	if !d.Slashed(1) {
		t.Error("prune forgot a reported offender")
	}
}

// histories reads every validator's votes, in order, out of the detector's
// frame — the one place its storage is observable from outside.
func histories(t *testing.T, d *Detector) [][]attestation.Data {
	t.Helper()
	var frame bytes.Buffer
	d.EncodeTo(codec.NewWriter(&frame))
	r := codec.NewReader(bytes.NewReader(frame.Bytes()))
	table := attestation.DecodeTable(r)
	counts, ids := r.U32s(), r.U32s()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	out := make([][]attestation.Data, len(counts))
	for v, n := range counts {
		for _, id := range ids[:n] {
			out[v] = append(out[v], table[id])
		}
		ids = ids[n:]
	}
	return out
}

// TestDetectorLongHistoriesKeepArrivalOrder: a history longer than its
// validator's line continues in the spill, and nothing a caller can see
// tells the two apart — order, deduplication, which earlier vote an offense
// is proved against (the earliest, wherever it lives), pruning that moves
// overflow back into the line, clones and decoded frames.
func TestDetectorLongHistoriesKeepArrivalOrder(t *testing.T) {
	// An honest chain of votes: epoch e has source e-1, so no two conflict.
	vote := func(e uint64) attestation.Data { return data(e*32, e, e-1, e-1, e, e) }
	observe := func(d *Detector, v types.ValidatorIndex, a attestation.Data) *Evidence {
		return d.Observe(attestation.Attestation{Validator: v, Data: a})
	}
	const full, even = types.ValidatorIndex(3), types.ValidatorIndex(5)
	const twin = types.ValidatorIndex(4) // casts what full casts
	d := NewDetector()
	want := make([][]attestation.Data, 6)
	cast := func(v types.ValidatorIndex, a attestation.Data) {
		t.Helper()
		if ev := observe(d, v, a); ev != nil {
			t.Fatalf("validator %d: honest vote for epoch %d reported: %v", v, a.Target.Epoch, ev)
		}
		want[v] = append(want[v], a)
	}
	for e := uint64(1); e <= 40; e++ {
		cast(full, vote(e))
		cast(twin, vote(e))
		if e%2 == 0 {
			cast(even, vote(e))
		}
	}
	check := func(at string, d *Detector) {
		t.Helper()
		got := histories(t, d)
		for v := range want {
			if !slices.Equal(got[v], want[v]) {
				t.Fatalf("%s: validator %d history\n  got  %v\n  want %v", at, v, got[v], want[v])
			}
			if d.HistoryLen(types.ValidatorIndex(v)) != len(want[v]) {
				t.Fatalf("%s: validator %d HistoryLen = %d, want %d", at, v, d.HistoryLen(types.ValidatorIndex(v)), len(want[v]))
			}
		}
	}
	check("after 40 epochs", d)
	if lineIDs >= 20 {
		t.Fatalf("a line holds %d ids: the histories above no longer overflow it", lineIDs)
	}

	// Re-delivery of a vote that lives in the overflow is not a new vote.
	if ev := observe(d, full, vote(33)); ev != nil || d.HistoryLen(full) != 40 {
		t.Fatalf("duplicate of an overflow entry: evidence %v, history %d", ev, d.HistoryLen(full))
	}
	// A double vote against an entry only the overflow holds.
	double := data(30*32, 999, 29, 29, 30, 999)
	if ev := observe(d, full, double); ev == nil || ev.Kind != DoubleVote || ev.First != vote(30) {
		t.Fatalf("double vote against epoch 30: %v", ev)
	}
	want[full] = append(want[full], double)
	// A vote surrounding epochs 11..34: the earliest of them is in the line.
	wide := data(35*32, 998, 9, 9, 35, 998)
	if ev := observe(d, twin, wide); ev == nil || ev.Kind != SurroundVote || ev.First != vote(11) {
		t.Fatalf("surround with its earliest match in the line: %v", ev)
	}
	want[twin] = append(want[twin], wide)
	// A vote surrounding epochs 32..38 of the even voter: all of them in
	// its overflow, read newest first; the proof is against the earliest.
	narrow := data(39*32, 997, 30, 30, 39, 997)
	if ev := observe(d, even, narrow); ev == nil || ev.Kind != SurroundVote || ev.First != vote(32) {
		t.Fatalf("surround with every match in the overflow: %v", ev)
	}
	want[even] = append(want[even], narrow)
	check("after the offenses", d)

	// Pruning below epoch 27 leaves the even voter 8 votes — its overflow
	// moves into the line — and the other two 15, still one past it.
	prune := func(e types.Epoch) {
		d.Prune(e)
		for v := range want {
			want[v] = slices.DeleteFunc(want[v], func(a attestation.Data) bool { return a.Target.Epoch < e })
		}
	}
	prune(27)
	check("after the prune", d)
	for e := uint64(41); e <= 44; e++ {
		cast(full, vote(e))
		cast(even, vote(e))
	}
	check("votes after the prune", d)

	clone := d.Clone()
	var frame bytes.Buffer
	d.EncodeTo(codec.NewWriter(&frame))
	decoded := DecodeDetector(codec.NewReader(bytes.NewReader(frame.Bytes())))
	if decoded == nil {
		t.Fatal("frame does not decode")
	}
	for name, other := range map[string]*Detector{"clone": clone, "decoded": decoded} {
		check(name, other)
		observe(other, even, vote(50))
		if other.HistoryLen(even) != d.HistoryLen(even)+1 {
			t.Fatalf("%s: a vote it took changed the original", name)
		}
	}
	prune(100)
	check("after pruning everything", d)
	if !d.Slashed(full) || !d.Slashed(twin) || !d.Slashed(even) {
		t.Error("prune forgot a reported offender")
	}
}
