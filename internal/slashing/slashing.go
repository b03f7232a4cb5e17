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

// Detector finds the offenses an observer can prove from the votes it has
// received. It stores none of them: the observer's attestation pool already
// holds every retained vote once, by target epoch and validator, and the
// detector reads those columns. What it keeps is who has been reported, so
// each offender is reported once. The detection window is therefore the
// pool's retention — pruning the pool narrows it to votes the observer
// still holds, the same weak-subjectivity trade-off real clients make; the
// paper's scenarios surface their evidence within a few epochs of the
// conflicting votes, so the simulator's 8-epoch retention never loses an
// offense. The zero value is an empty detector.
type Detector struct {
	// slashed[v] marks validators with already-reported evidence. It ends at
	// the highest validator reported.
	slashed []bool
	// found[i] is, for the i-th validator of the batch being observed, the
	// vote its new one conflicts with: the position of the vote's epoch
	// among the pool's retained ones and the vote's id there, zero for none.
	//gasper:nocodec per-batch scratch
	//gasper:shallow per-batch scratch; clones re-grow their own
	found []foundVote
	// conflicts[id] reports whether the vote with that id, in the epoch
	// being scanned, conflicts with the batch's value.
	//gasper:nocodec per-batch scratch
	//gasper:shallow per-batch scratch; clones re-grow their own
	conflicts []bool
}

type foundVote struct {
	epoch int32
	id    uint32
}

// ObserveBatch looks at one data value that pool.AddBatch has just recorded
// as new for every listed validator, and appends to dst, in listed order,
// the evidence of each not-yet-reported validator whose offense it
// completes: of the retained votes of that validator it conflicts with, the
// one with the lowest target epoch and, within that epoch, the earliest to
// arrive — a choice that depends on the votes held and not on the order
// epochs were heard in, so two observers holding the same votes agree.
//
// A retained epoch is looked into only if it can hold a conflict at all:
// the value's own target epoch once some validator has equivocated in it,
// an earlier epoch whose votes reach a later source than the value's, a
// later one whose votes reach an earlier source. An honest stream passes
// none of these, and costs two compares per retained epoch.
//
//gasper:noalloc
func (d *Detector) ObserveBatch(dst []Evidence, pool *attestation.Pool, data attestation.Data, validators []types.ValidatorIndex) []Evidence {
	if len(validators) == 0 {
		return dst
	}
	s, t := data.Source.Epoch, data.Target.Epoch
	retained := pool.Retained()
	d.found = d.found[:0]
	for at, ev := range retained {
		e := ev.Epoch()
		lo, hi := ev.SourceRange()
		if e < t && hi <= s || e > t && lo >= s || e == t && !ev.Equivocated() {
			continue
		}
		if len(d.found) == 0 {
			d.found = append(d.found, make([]foundVote, len(validators))...) //gasper:alloc scratch growth, amortized to zero
		}
		d.scan(ev, int32(at), &data, validators)
	}
	for i, f := range d.found {
		if f.id == 0 {
			continue
		}
		v := validators[i]
		first := retained[f.epoch].Values()[f.id-1]
		dst = append(dst, Evidence{Validator: v, Kind: spanConflict(&first, &data), First: first, Second: data})
		if int(v) >= len(d.slashed) {
			d.slashed = append(d.slashed, make([]bool, int(v)+1-len(d.slashed))...) //gasper:alloc rare: the first offender this high
		}
		d.slashed[v] = true
	}
	return dst
}

// scan classifies each distinct vote of one retained epoch against the
// batch's value, once, and files for every listed validator still without
// a conflicting vote (and not yet reported) the first of its votes there
// that conflicts.
//
//gasper:noalloc
func (d *Detector) scan(ev *attestation.EpochVotes, at int32, data *attestation.Data, validators []types.ValidatorIndex) {
	values := ev.Values()
	d.conflicts = d.conflicts[:0]
	d.conflicts = append(d.conflicts, false) // id 0 is no vote
	some := false
	for i := range values {
		c := values[i] != *data && spanConflict(&values[i], data) != None
		d.conflicts = append(d.conflicts, c)
		some = some || c
	}
	if !some {
		return
	}
	for i, v := range validators {
		if d.found[i].id != 0 || d.Slashed(v) {
			continue
		}
		var buf [8]uint32
		for _, id := range ev.AppendVotes(buf[:0], v) {
			if d.conflicts[id] {
				d.found[i] = foundVote{epoch: at, id: id}
				break
			}
		}
	}
}

// Clone copies the detector, so a snapshotted view can evolve apart from
// its restore points.
func (d *Detector) Clone() *Detector {
	return &Detector{slashed: append([]bool(nil), d.slashed...)}
}

// Slashed reports whether evidence against v has been produced.
func (d *Detector) Slashed(v types.ValidatorIndex) bool {
	return int(v) < len(d.slashed) && d.slashed[v]
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
