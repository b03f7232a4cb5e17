// Package slashing implements the detector for the two slashable attestation
// offenses of Casper FFG (paper Sections 3.3 and 5.2.1):
//
//   - double vote: two distinct attestations by the same validator with the
//     same target epoch;
//   - surround vote: an attestation whose source/target span strictly
//     surrounds (or is surrounded by) an earlier one from the same validator
//     (s1 < s2 < t2 < t1).
//
// The detector is what turns the paper's "with slashing" scenario (5.2.1)
// into consequences: Byzantine validators voting on both branches of a fork
// during a partition are detected only once honest validators see both
// attestations, i.e. after GST, when evidence can be included in a block.
package slashing

import (
	"fmt"

	"repro/internal/attestation"
	"repro/internal/types"
)

// Kind labels the detected offense.
type Kind int

// Offense kinds.
const (
	None Kind = iota
	DoubleVote
	SurroundVote
)

// String names the offense kind.
func (k Kind) String() string {
	switch k {
	case DoubleVote:
		return "double vote"
	case SurroundVote:
		return "surround vote"
	default:
		return "none"
	}
}

// Evidence is a provable offense: the pair of conflicting votes.
type Evidence struct {
	Validator types.ValidatorIndex
	Kind      Kind
	First     attestation.Data
	Second    attestation.Data
}

// String renders the evidence for logs.
func (e Evidence) String() string {
	return fmt.Sprintf("slashing(%s v=%d t1=%d t2=%d)",
		e.Kind, e.Validator, e.First.Target.Epoch, e.Second.Target.Epoch)
}

// Detector accumulates every attestation it observes and reports offenses.
// One Detector instance corresponds to one observer's knowledge: feed it
// only the attestations that observer has actually received, and it will
// find exactly the offenses that observer can prove. Each distinct vote is
// stored once, in a table; a validator's history is the arrival-ordered
// list of table ids it cast, so deduplication is an integer compare and an
// offense check reads two epochs from the table. The zero value is not
// usable; construct with NewDetector.
type Detector struct {
	// table lists the distinct attestation data values retained, in
	// first-seen order; history ids index it.
	table []attestation.Data
	// history[v] holds the ids of all distinct votes seen from v, in
	// arrival order; the outer slice grows to the highest validator index
	// observed.
	history [][]uint32
	// slashed[v] marks validators with already-reported evidence so each
	// offender is reported once. It is as long as history.
	slashed []bool
	// renumber is Prune's old-id -> new-id scratch.
	//gasper:nocodec scratch buffer; each detector re-grows its own
	//gasper:shallow scratch buffer; clones re-grow their own
	renumber []uint32
}

// NewDetector returns an empty detector.
func NewDetector() *Detector {
	return &Detector{}
}

// Observe records an attestation and returns evidence if it completes an
// offense by a not-yet-reported validator, or nil. It is ObserveBatch with
// one validator.
func (d *Detector) Observe(a attestation.Attestation) *Evidence {
	one := [1]types.ValidatorIndex{a.Validator}
	var found [1]Evidence
	if len(d.ObserveBatch(found[:0], a.Data, one[:])) == 0 {
		return nil
	}
	ev := found[0]
	return &ev
}

// ObserveBatch records one data value cast by every listed validator and
// appends to dst, in listed order, the evidence of each not-yet-reported
// validator whose offense it completes: the earliest recorded vote of that
// validator it conflicts with, and the new one. A validator that already
// cast this exact value is skipped — a duplicate is not an offense.
//
//gasper:noalloc
func (d *Detector) ObserveBatch(dst []Evidence, data attestation.Data, validators []types.ValidatorIndex) []Evidence {
	if len(validators) == 0 {
		return dst
	}
	id := d.intern(data)
	need := 0
	for _, v := range validators {
		if int(v) >= need {
			need = int(v) + 1
		}
	}
	if len(d.history) < need {
		//gasper:alloc one-time column growth to the validator count
		d.history = append(d.history, make([][]uint32, need-len(d.history))...)
		//gasper:alloc one-time column growth to the validator count
		d.slashed = append(d.slashed, make([]bool, need-len(d.slashed))...)
	}
votes:
	for _, v := range validators {
		// One walk both deduplicates and, for a validator not yet
		// reported, finds the earliest conflicting vote.
		kind, first, reported := None, uint32(0), d.slashed[v]
		for _, prev := range d.history[v] {
			if prev == id {
				continue votes // exact duplicate, not an offense
			}
			if !reported && kind == None {
				if kind = spanConflict(&d.table[prev], &data); kind != None {
					first = prev
				}
			}
		}
		if kind != None {
			dst = append(dst, Evidence{Validator: v, Kind: kind, First: d.table[first], Second: data})
			d.slashed[v] = true
		}
		d.history[v] = append(d.history[v], id)
	}
	return dst
}

// intern returns data's id in the table, appending it on first sight. The
// scan runs newest first — a value is re-delivered soon after it is first
// seen, if at all — and slots are nearly unique in the table, so all but a
// few entries are dismissed on one integer compare.
//
//gasper:noalloc
func (d *Detector) intern(data attestation.Data) uint32 {
	for i := len(d.table) - 1; i >= 0; i-- {
		if d.table[i].Slot == data.Slot && d.table[i] == data {
			return uint32(i)
		}
	}
	d.table = append(d.table, data)
	return uint32(len(d.table) - 1)
}

// Clone deep-copies the detector, so a snapshotted view can evolve apart
// from its restore points.
func (d *Detector) Clone() *Detector {
	out := &Detector{
		table:   append([]attestation.Data(nil), d.table...),
		history: make([][]uint32, len(d.history)),
		slashed: append([]bool(nil), d.slashed...),
	}
	// One backing array for the whole history rather than one allocation
	// per validator (allocation count, not bytes, dominates a paper-scale
	// clone). Sub-slices are capped at their length, so appending to
	// either copy's history reallocates instead of clobbering a neighbor.
	total := 0
	for _, ids := range d.history {
		total += len(ids)
	}
	arena := make([]uint32, 0, total)
	for v, ids := range d.history {
		if len(ids) > 0 {
			start := len(arena)
			arena = append(arena, ids...)
			out.history[v] = arena[start:len(arena):len(arena)]
		}
	}
	return out
}

// Prune drops recorded votes with target epoch strictly below e, bounding
// detector memory over long simulations: the table is compacted, its
// survivors renumbered, and every history rewritten in the new numbering.
// Already-reported offenders stay marked. Pruning narrows the detection
// window to votes the observer still retains — the same weak-subjectivity
// trade-off real clients make; the paper's scenarios surface their evidence
// within a few epochs of the conflicting votes, so the simulator's 8-epoch
// retention (matching the attestation pool's) never loses an offense.
func (d *Detector) Prune(e types.Epoch) {
	const dropped = ^uint32(0)
	d.renumber = d.renumber[:0]
	kept := 0
	for _, data := range d.table {
		if data.Target.Epoch >= e {
			d.renumber = append(d.renumber, uint32(kept))
			d.table[kept] = data
			kept++
		} else {
			d.renumber = append(d.renumber, dropped)
		}
	}
	if kept == len(d.table) {
		return
	}
	d.table = d.table[:kept]
	for v, ids := range d.history {
		live := ids[:0]
		for _, id := range ids {
			if id = d.renumber[id]; id != dropped {
				live = append(live, id)
			}
		}
		if len(live) == 0 {
			d.history[v] = nil
		} else {
			d.history[v] = live
		}
	}
}

// Slashed reports whether evidence against v has been produced.
func (d *Detector) Slashed(v types.ValidatorIndex) bool {
	return int(v) < len(d.slashed) && d.slashed[v]
}

// HistoryLen returns the number of distinct votes recorded for v (for tests
// and metrics).
func (d *Detector) HistoryLen(v types.ValidatorIndex) int {
	if int(v) >= len(d.history) {
		return 0
	}
	return len(d.history[v])
}

// Conflict classifies the offense formed by two distinct attestation data
// values from the same validator, or None.
func Conflict(a, b attestation.Data) Kind {
	if a == b {
		return None
	}
	return spanConflict(&a, &b)
}

// spanConflict is Conflict for two values already known to differ; it
// reads only their source and target epochs.
func spanConflict(a, b *attestation.Data) Kind {
	// Double vote: same target epoch, different votes.
	if a.Target.Epoch == b.Target.Epoch {
		return DoubleVote
	}
	// Surround vote: one span strictly inside the other.
	if surrounds(a, b) || surrounds(b, a) {
		return SurroundVote
	}
	return None
}

// surrounds reports whether outer strictly surrounds inner:
// outer.source < inner.source and inner.target < outer.target.
func surrounds(outer, inner *attestation.Data) bool {
	return outer.Source.Epoch < inner.Source.Epoch &&
		inner.Target.Epoch < outer.Target.Epoch
}
