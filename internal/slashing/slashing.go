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

// A validator's history lives in one line of the detector's arena: a
// 64-byte cache line holding its length, its first lineIDs vote ids, and —
// once it has more than that — the position of its newest entry in the
// spill.
const (
	lineWords = 16            // uint32 words per line
	lineIDs   = lineWords - 2 // ids held in the line itself
	lineTail  = lineWords - 1 // word linking to the spill: 1 + index of the newest overflow entry, 0 for none
)

var emptyLine [lineWords]uint32

// overflow is one vote id that did not fit its validator's line. Entries
// sit in the spill in arrival order; prev chains a validator's entries
// newest to oldest (1 + index, 0 at the oldest), so reading one validator's
// overflow never walks another's.
type overflow struct {
	validator uint32
	id        uint32
	prev      uint32
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
	// lines is the history arena, lineWords words per validator that has
	// voted, in order of first vote — a cohort's duty slot votes together
	// from its first epoch on, so a batch reads neighbouring lines, and a
	// view that hears half the validators holds half the lines. Word 0
	// counts the distinct votes seen from the validator, words 1..lineIDs
	// hold the first of their ids in arrival order, word lineTail links to
	// the rest.
	lines []uint32
	// lineOf[v] is 1 + the position of v's line in the arena, 0 while v has
	// not voted; it grows to the highest validator index observed.
	lineOf []uint32
	// spill holds, in arrival order, the ids that overflowed their lines. A
	// validator's history is its line's ids, then its spill entries.
	spill []overflow
	// slashed[v] marks validators with already-reported evidence so each
	// offender is reported once. It is as long as lineOf.
	slashed []bool
	// renumber is Prune's old-id -> new-id scratch.
	//gasper:nocodec scratch buffer; each detector re-grows its own
	//gasper:shallow scratch buffer; clones re-grow their own
	renumber []uint32
	// memo[id] caches how table[id] conflicts with the value of the batch
	// being observed: batch<<2 | Kind, valid while its stamp equals batch.
	// A cohort's validators share most of their past votes, so a batch
	// classifies each of them once.
	//gasper:nocodec per-batch scratch; a stale stamp reads as empty
	//gasper:shallow per-batch scratch; clones re-grow their own
	memo []uint64
	//gasper:nocodec stamps memo entries; a decoded detector restarts from its empty memo
	//gasper:shallow stamps memo entries; a clone restarts from its empty memo
	batch uint64
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
	if len(d.slashed) < need {
		//gasper:alloc one-time column growth to the validator count
		d.lineOf = append(d.lineOf, make([]uint32, need-len(d.lineOf))...)
		//gasper:alloc one-time column growth to the validator count
		d.slashed = append(d.slashed, make([]bool, need-len(d.slashed))...)
	}
	if len(d.memo) < len(d.table) {
		//gasper:alloc one-time column growth to the table's steady size
		d.memo = append(d.memo, make([]uint64, len(d.table)-len(d.memo))...)
	}
	// A memo word is read in line here; only its miss is a call.
	d.batch++
	memo, stamp := d.memo, d.batch
votes:
	for _, v := range validators {
		// One walk both deduplicates and, for a validator not yet
		// reported, finds the earliest conflicting vote.
		line := d.line(uint32(v))
		kind, first, search := None, uint32(0), !d.slashed[v]
		for _, prev := range line[1 : 1+min(line[0], lineIDs)] {
			if prev == id {
				continue votes // exact duplicate, not an offense
			}
			if search {
				m := memo[prev]
				if m>>2 != stamp {
					m = d.classify(prev, &data)
				}
				if kind = Kind(m & 3); kind != None {
					first, search = prev, false
				}
			}
		}
		// The overflow reads newest first, so the last conflict met is the
		// earliest cast — unless the line, older still, already held one.
		for at := line[lineTail]; at != 0; at = d.spill[at-1].prev {
			prev := d.spill[at-1].id
			if prev == id {
				continue votes
			}
			if search {
				m := memo[prev]
				if m>>2 != stamp {
					m = d.classify(prev, &data)
				}
				if k := Kind(m & 3); k != None {
					kind, first = k, prev
				}
			}
		}
		if kind != None {
			dst = append(dst, Evidence{Validator: v, Kind: kind, First: d.table[first], Second: data})
			d.slashed[v] = true
		}
		d.push(line, uint32(v), id)
	}
	return dst
}

// line returns validator v's line, opening it at the end of the arena on v's
// first vote. It is good until the next line is opened. An arena with no
// room left is moved once, to where every validator known so far would fit:
// growing it a step at a time would copy it again and again through a
// cohort's first epoch, and again after every Clone, which leaves no room.
//
//gasper:noalloc
func (d *Detector) line(v uint32) []uint32 {
	at := d.lineOf[v]
	if at == 0 {
		if len(d.lines) == cap(d.lines) {
			//gasper:alloc one-time arena growth to the validator count
			d.lines = append(make([]uint32, 0, len(d.lineOf)*lineWords), d.lines...)
		}
		d.lines = append(d.lines, emptyLine[:]...)
		at = uint32(len(d.lines) / lineWords)
		d.lineOf[v] = at
	}
	return d.lines[(at-1)*lineWords:][:lineWords]
}

// push appends id to the history of validator v, whose line is given.
//
//gasper:noalloc
func (d *Detector) push(line []uint32, v, id uint32) {
	if n := line[0]; n < lineIDs {
		line[1+n] = id
	} else {
		d.spill = append(d.spill, overflow{validator: v, id: id, prev: line[lineTail]}) //gasper:alloc spill append: a history past one line, an equivocator's
		line[lineTail] = uint32(len(d.spill))
	}
	line[0]++
}

// classify is the memo's miss: it compares table[prev] with the value of
// the batch being observed and returns the memo word it files, so the
// batch's other validators that cast table[prev] read the answer.
//
//gasper:noalloc
func (d *Detector) classify(prev uint32, data *attestation.Data) uint64 {
	m := d.batch<<2 | uint64(spanConflict(&d.table[prev], data))
	d.memo[prev] = m
	return m
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
// from its restore points: five flat copies, whatever the validator count
// (line and spill links are positions, so they survive the copy as they
// are).
func (d *Detector) Clone() *Detector {
	return &Detector{
		table:   append([]attestation.Data(nil), d.table...),
		lines:   append([]uint32(nil), d.lines...),
		lineOf:  append([]uint32(nil), d.lineOf...),
		spill:   append([]overflow(nil), d.spill...),
		slashed: append([]bool(nil), d.slashed...),
	}
}

// Prune drops recorded votes with target epoch strictly below e, bounding
// detector memory over long simulations: the table is compacted, its
// survivors renumbered, every line rewritten in the new numbering in one
// sweep of the arena, and the surviving overflow re-filed in arrival order
// — into the room the sweep made in its validator's line first. Already-
// reported offenders stay marked. Pruning narrows the detection window to
// votes the observer still retains — the same weak-subjectivity trade-off
// real clients make; the paper's scenarios surface their evidence within a
// few epochs of the conflicting votes, so the simulator's 8-epoch retention
// (matching the attestation pool's) never loses an offense.
//
//gasper:noalloc
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
	// Word indices are taken modulo the line (they are below it anyway), which
	// lets the compiler drop the bounds checks of the sweep's inner loop.
	renumber := d.renumber
	for at := 0; at+lineWords <= len(d.lines); at += lineWords {
		line := (*[lineWords]uint32)(d.lines[at:])
		live := uint32(0)
		for k, n := uint32(1), min(line[0], lineIDs); k <= n; k++ {
			if id := renumber[line[k%lineWords]]; id != dropped {
				live++
				line[live%lineWords] = id
			}
		}
		line[0], line[lineTail] = live, 0
	}
	// Re-filing writes at or before the entry being read, never past it.
	old := d.spill
	d.spill = d.spill[:0]
	for _, o := range old {
		if id := d.renumber[o.id]; id != dropped {
			d.push(d.line(o.validator), o.validator, id)
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
	if int(v) >= len(d.lineOf) || d.lineOf[v] == 0 {
		return 0
	}
	return int(d.lines[(d.lineOf[v]-1)*lineWords])
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
