// Package attestation defines the vote messages of the protocol and the
// pools that collect them.
//
// An attestation carries two votes (paper Section 3.2): a block vote (the
// head of the chain according to the attester, consumed by the fork-choice
// rule) and a checkpoint vote (a source->target pair of checkpoints,
// consumed by the FFG justification machinery). Each validator attests once
// per epoch.
package attestation

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/types"
)

// Data is the signed content of an attestation.
type Data struct {
	// Slot in which the attestation was produced.
	Slot types.Slot
	// Head is the block vote: the attester's view of the chain head.
	Head types.Root
	// Source is the checkpoint-vote source: the latest justified
	// checkpoint in the attester's view.
	Source types.Checkpoint
	// Target is the checkpoint-vote target: the checkpoint of the
	// current epoch on the attester's candidate chain.
	Target types.Checkpoint
}

// Attestation is a vote attributed to one validator. The simulator treats
// the attribution as authenticated: the paper assumes unforgeable
// signatures, and the attacks depend only on who is observed voting where,
// so no simulated message carries one.
type Attestation struct {
	Validator types.ValidatorIndex
	Data      Data
}

// String renders a compact description for logs.
func (a Attestation) String() string {
	return fmt.Sprintf("att(v=%d slot=%d head=%s tgt=%d/%s src=%d)",
		a.Validator, a.Data.Slot, a.Data.Head,
		a.Data.Target.Epoch, a.Data.Target.Root, a.Data.Source.Epoch)
}

// Pool accumulates attestations indexed by target epoch and validator. It
// retains every distinct vote (an equivocating validator contributes
// several), which is what both the FFG engine and the activity criterion
// need. A cohort's duty slot is one Data cast by hundreds of validators, so
// the pool stores each distinct value once: per target epoch, a small table
// of the Data values seen plus validator-indexed columns of 4-byte ids into
// it. Dedup is an integer compare, the boundary sweeps resolve a link or a
// target once per distinct value and then walk a flat column, and Clone
// copies a few flat slices per epoch. The pool is also the only record of
// who voted what: the slashing detector stores no votes and reads these
// columns (Retained). The zero value is an empty pool.
type Pool struct {
	// epochs holds the retained target epochs in ascending order — the
	// boundary's prune keeps it to about ten.
	epochs []*EpochVotes
	// width is the length a new epoch's id column is allocated at, in one
	// piece: the validator count Reset was given, or the highest validator
	// index seen + 1 where that is more (a pool that was never told its
	// validator count learns it batch by batch).
	width int //gasper:nocodec allocation hint; a decoding walk re-learns it from the decoded column lengths
	// spares holds up to maxSpares pruned epochs whose storage the next new
	// target epochs take over: in a steady run the boundary prunes one
	// epoch for every one the next slot opens, so no epoch allocates its
	// column afresh. What a spare held is erased when it is reused.
	//gasper:nocodec allocation cache, not state; a decoded pool starts with none
	//gasper:shallow a clone starts with none: the storage belongs to this pool
	spares []*EpochVotes
	// win and rows are AppendWindowTally's per-call scratch: the window's
	// epochs, and their id -> row columns laid end to end.
	//gasper:nocodec scratch buffer; each pool re-grows its own
	//gasper:shallow scratch buffer; clones re-grow their own
	win []windowEpoch
	//gasper:nocodec scratch buffer; each pool re-grows its own
	//gasper:shallow scratch buffer; clones re-grow their own
	rows []int32
}

// EpochVotes holds one target epoch's votes. An id is a table index plus
// one; zero means no vote. Outside the package it is read-only.
type EpochVotes struct {
	epoch types.Epoch
	// table lists the distinct Data values seen with this target epoch, in
	// first-seen order.
	table []Data
	// srcMin and srcMax bound the source epochs of the table's values, kept
	// as values are interned: whether any vote of this epoch can surround,
	// or be surrounded by, a vote of another is two compares.
	srcMin types.Epoch //gasper:nocodec derived from the table; a decoding walk recomputes it
	srcMax types.Epoch //gasper:nocodec derived from the table; a decoding walk recomputes it
	// first[v] is the id of validator v's first distinct vote; second[v]
	// that of its second (the equivocator's other face), nil until some
	// validator casts one and as long as first from then on. A validator's
	// third and later distinct votes go to spill in arrival order, so a
	// validator's votes in arrival order are first, second, then its spill
	// entries.
	first  []uint32
	second []uint32
	spill  []spillVote
	// voted is the highest validator with a vote, plus one: where the
	// boundary's sweeps stop, however far past it first is sized (a view of
	// one partition hears half the validators).
	voted int //gasper:nocodec derived from the column; a decoding walk recomputes it
}

// spillVote is a third-or-later distinct vote of one validator for one
// target epoch.
type spillVote struct {
	validator types.ValidatorIndex
	id        uint32
}

// maxSpares bounds the pruned epochs kept for reuse: one is taken per new
// target epoch, a second covers a boundary that prunes before a late first
// vote opens an older epoch.
const maxSpares = 2

// Reset empties the pool for votes of validators [0, width): every new
// epoch's id column is sized to width at its first vote, and the epochs
// held become spares whose storage the next target epochs take over.
func (p *Pool) Reset(width int) {
	p.spares = append(p.spares, p.epochs...)
	p.epochs = p.epochs[:0]
	p.width = width
}

// find returns target epoch e's votes, or nil. It looks from the newest
// epoch down: votes arrive for, and the boundary reads, the latest few.
//
//gasper:noalloc
func (p *Pool) find(e types.Epoch) *EpochVotes {
	for i := len(p.epochs) - 1; i >= 0 && p.epochs[i].epoch >= e; i-- {
		if p.epochs[i].epoch == e {
			return p.epochs[i]
		}
	}
	return nil
}

// open is find that files an empty entry, in order, for an epoch not held.
//
//gasper:noalloc
func (p *Pool) open(e types.Epoch) *EpochVotes {
	i := len(p.epochs)
	for i > 0 && p.epochs[i-1].epoch >= e {
		i--
	}
	if i < len(p.epochs) && p.epochs[i].epoch == e {
		return p.epochs[i]
	}
	ev := p.spare(e)
	p.epochs = slices.Insert(p.epochs, i, ev)
	return ev
}

// spare returns an empty entry for target epoch e, in the storage of the
// spare taken last when there is one.
//
//gasper:noalloc
func (p *Pool) spare(e types.Epoch) *EpochVotes {
	n := len(p.spares)
	if n == 0 {
		return &EpochVotes{epoch: e} //gasper:alloc first vote of a target epoch with no pruned epoch to reuse: the run's first few epochs
	}
	ev := p.spares[n-1]
	p.spares = p.spares[:n-1]
	ev.reset(e)
	return ev
}

// reset empties a pruned epoch's storage for reuse as target epoch e: the
// id column cleared at its length, the table and the spill truncated, the
// equivocators' column dropped — that one is rare enough to re-allocate,
// and while it is nil nobody looks for a second vote.
//
//gasper:noalloc
func (ev *EpochVotes) reset(e types.Epoch) {
	clear(ev.first)
	*ev = EpochVotes{epoch: e, table: ev.table[:0], first: ev.first, spill: ev.spill[:0]}
}

// Retained returns the target epochs the pool holds, in ascending order.
// The slice and its entries are the pool's own: read-only, and valid until
// the pool is next mutated.
func (p *Pool) Retained() []*EpochVotes { return p.epochs }

// Epoch returns the target epoch these votes are for.
func (ev *EpochVotes) Epoch() types.Epoch { return ev.epoch }

// SourceRange returns the lowest and the highest source epoch among the
// epoch's distinct votes.
func (ev *EpochVotes) SourceRange() (lo, hi types.Epoch) { return ev.srcMin, ev.srcMax }

// Values returns the epoch's distinct votes in first-seen order; the vote
// with id i is Values()[i-1].
func (ev *EpochVotes) Values() []Data { return ev.table }

// Equivocated reports whether some validator holds two distinct votes for
// this target epoch.
func (ev *EpochVotes) Equivocated() bool { return ev.second != nil }

// Add records an attestation. Duplicate (validator, data) pairs are
// ignored. It reports whether the attestation was new. It is AddBatch with
// one validator.
func (p *Pool) Add(a Attestation) bool {
	one := [1]types.ValidatorIndex{a.Validator}
	var added [1]types.ValidatorIndex
	return len(p.AddBatch(added[:0], a.Data, one[:])) == 1
}

// AddBatch records one data value cast by every listed validator and
// appends to dst, in listed order, the validators for whom it was new
// (duplicate (validator, data) pairs are ignored). The value is interned
// once for the whole batch; per validator the work is an id compare and an
// id store. Data is a comparable struct and interning compares values
// directly, so equality is exact and hash-free.
//
//gasper:noalloc
func (p *Pool) AddBatch(dst []types.ValidatorIndex, data Data, validators []types.ValidatorIndex) []types.ValidatorIndex {
	if len(validators) == 0 {
		return dst
	}
	ev := p.open(data.Target.Epoch)
	id := ev.intern(data)
	need := 0
	for _, v := range validators {
		if int(v) >= need {
			need = int(v) + 1
		}
	}
	p.width = max(p.width, need)
	ev.voted = max(ev.voted, need)
	if len(ev.first) < need {
		ev.first = widen(ev.first, p.width)
		if ev.second != nil {
			ev.second = widen(ev.second, p.width)
		}
	}
	for _, v := range validators {
		switch ev.first[v] {
		case 0:
			ev.first[v] = id
		case id:
			continue
		default:
			if !ev.addEquivocation(v, id) {
				continue
			}
		}
		dst = append(dst, v)
	}
	return dst
}

// widen returns col lengthened to n ids, the new ones zero: in its own
// storage when that holds n (a spare's column a shorter run cut down, or a
// decode filled short), else in one new piece.
//
//gasper:noalloc
func widen(col []uint32, n int) []uint32 {
	if cap(col) >= n {
		k := len(col)
		col = col[:n]
		clear(col[k:])
		return col
	}
	out := make([]uint32, n) //gasper:alloc one-time column growth: an epoch's column is sized to the validator count in one piece
	copy(out, col)
	return out
}

// intern returns d's id in the epoch's table, appending d on first sight.
// The scan runs newest first: a value is re-delivered soon after it is
// first seen, if at all.
//
//gasper:noalloc
func (ev *EpochVotes) intern(d Data) uint32 {
	for i := len(ev.table) - 1; i >= 0; i-- {
		if ev.table[i] == d {
			return uint32(i + 1)
		}
	}
	ev.table = append(ev.table, d) // allocates only on the once-per-batch intern of a first-seen value
	ev.noteSource(len(ev.table) - 1)
	return uint32(len(ev.table))
}

// noteSource widens the source range to cover table[i]; the entries before
// it have been noted.
func (ev *EpochVotes) noteSource(i int) {
	s := ev.table[i].Source.Epoch
	if i == 0 || s < ev.srcMin {
		ev.srcMin = s
	}
	if i == 0 || s > ev.srcMax {
		ev.srcMax = s
	}
}

// addEquivocation records id as a second-or-later distinct vote of v,
// whose first vote differs from it. It reports whether the vote was new.
//
//gasper:noalloc
func (ev *EpochVotes) addEquivocation(v types.ValidatorIndex, id uint32) bool {
	if ev.second == nil {
		ev.second = make([]uint32, len(ev.first)) //gasper:alloc one-time column growth at the epoch's first equivocation
	}
	switch ev.second[v] {
	case 0:
		ev.second[v] = id
		return true
	case id:
		return false
	}
	for _, sp := range ev.spill {
		if sp.validator == v && sp.id == id {
			return false
		}
	}
	ev.spill = append(ev.spill, spillVote{validator: v, id: id}) // rare: a third distinct vote for one target epoch
	return true
}

// AppendVotes appends the ids of v's votes to dst, in arrival order.
//
//gasper:noalloc
func (ev *EpochVotes) AppendVotes(dst []uint32, v types.ValidatorIndex) []uint32 {
	if int(v) >= len(ev.first) || ev.first[v] == 0 {
		return dst
	}
	dst = append(dst, ev.first[v])
	if ev.second == nil || ev.second[v] == 0 {
		return dst
	}
	dst = append(dst, ev.second[v])
	for _, sp := range ev.spill {
		if sp.validator == v {
			dst = append(dst, sp.id)
		}
	}
	return dst
}

// VotesForEpoch materializes the distinct attestation data with the given
// target epoch, indexed by validator and in each validator's arrival order
// (validators beyond the highest index seen are absent). It builds a fresh
// value on every call — the pool itself stores ids — and exists for tests
// and probes; the protocol paths read the id columns.
func (p *Pool) VotesForEpoch(e types.Epoch) [][]Data {
	ev := p.find(e)
	if ev == nil {
		return nil
	}
	out := make([][]Data, ev.voted)
	var ids []uint32
	for v := range out {
		ids = ev.AppendVotes(ids[:0], types.ValidatorIndex(v))
		for _, id := range ids {
			out[v] = append(out[v], ev.table[id-1])
		}
	}
	return out
}

// Activity is the activity criterion of one (target epoch, target root)
// pair, ready to be asked about every validator in turn: the target is
// compared once per distinct vote of the epoch, and a validator's answer
// is then a column read. Load it with Pool.Activity; it reads the pool's
// columns in place and is valid until the pool is next mutated. The zero
// value reports nobody active; reloading reuses its storage.
type Activity struct {
	ev *EpochVotes
	// match[id] reports whether the vote with that id names the root;
	// match[0], the id of no vote, is false.
	match []bool
}

// Activity loads into a the criterion "voted for root with target epoch
// e".
//
//gasper:noalloc
func (p *Pool) Activity(a *Activity, e types.Epoch, root types.Root) {
	a.ev = p.find(e)
	a.match = a.match[:0]
	if a.ev == nil {
		return
	}
	a.match = append(a.match, false)
	for i := range a.ev.table {
		a.match = append(a.match, a.ev.table[i].Target.Root == root)
	}
}

// Active reports whether v cast a vote matching the loaded criterion.
//
//gasper:noalloc
func (a *Activity) Active(v types.ValidatorIndex) bool {
	ev := a.ev
	if ev == nil || int(v) >= len(ev.first) {
		return false
	}
	if a.match[ev.first[v]] {
		return true
	}
	if ev.second == nil || ev.second[v] == 0 {
		return false
	}
	if a.match[ev.second[v]] {
		return true
	}
	for _, sp := range ev.spill {
		if sp.validator == v && a.match[sp.id] {
			return true
		}
	}
	return false
}

// LinkWeight is one row of a columnar per-epoch tally: a distinct
// source->target link and the total stake behind it.
type LinkWeight struct {
	Link   Link
	Weight types.Gwei
}

// windowEpoch is one target epoch of a window being tallied.
type windowEpoch struct {
	ev *EpochVotes
	// first and second are ev's columns, at hand for the pass.
	first, second []uint32
	out           int // which of the caller's tallies receives dst
	// dst is the tally so far; the rows of this call start at base, and
	// rows[id] is the dst row of that vote's link, -1 until resolved.
	dst  []LinkWeight
	base int
	rows []int32
}

// AppendWindowTally appends to dst[k] the per-link stake tally of target
// epoch lo+k, for every k, in one validator-major pass over the epochs' id
// columns: a validator's stake is asked for once, and only if it voted;
// each distinct vote's link is looked up among its epoch's rows once, on
// the first stake-bearing validator that cast it — an epoch's rows
// therefore appear in the order ascending validators first give them
// weight. When the tallies have capacity, the pass does not allocate.
// Equivocating validators count toward every distinct link they
// voted for, exactly as on-chain inclusion would credit them on each
// branch.
//
//gasper:noalloc
func (p *Pool) AppendWindowTally(dst [][]LinkWeight, lo types.Epoch, stake func(types.ValidatorIndex) types.Gwei) {
	p.win = p.win[:0]
	ids, width := 0, 0
	for k := range dst {
		if ev := p.find(lo + types.Epoch(k)); ev != nil {
			p.win = append(p.win, windowEpoch{ev: ev, first: ev.first[:ev.voted], second: ev.second, out: k, dst: dst[k], base: len(dst[k])})
			ids += len(ev.table) + 1
			width = max(width, ev.voted)
		}
	}
	if cap(p.rows) < ids {
		p.rows = make([]int32, ids) //gasper:alloc scratch growth, amortized to zero
	}
	rows := p.rows[:ids]
	for i := range rows {
		rows[i] = -1
	}
	win := p.win
	for i := range win {
		n := len(win[i].ev.table) + 1
		win[i].rows, rows = rows[:n], rows[n:]
	}
	for v := 0; v < width; v++ {
		var w types.Gwei
		for i := range win {
			we := &win[i]
			if v >= len(we.first) {
				continue
			}
			id := we.first[v]
			if id == 0 {
				continue
			}
			if w == 0 {
				if w = stake(types.ValidatorIndex(v)); w == 0 {
					break
				}
			}
			// The hot path: one vote per validator per epoch.
			row := we.rows[id]
			if row < 0 {
				we.dst = we.ev.resolveRow(we.dst, we.base, we.rows, id)
				row = we.rows[id]
			}
			we.dst[row].Weight += w
			if we.second != nil && we.second[v] != 0 {
				we.dst = we.ev.tallyEquivocations(we.dst, we.base, we.rows, types.ValidatorIndex(v), w)
			}
		}
	}
	for i := range win {
		dst[win[i].out] = win[i].dst
		win[i] = windowEpoch{}
	}
}

// AppendLinkTally appends the per-link stake tally of target epoch e to
// dst and returns it: AppendWindowTally with a window of one epoch.
//
//gasper:noalloc
func (p *Pool) AppendLinkTally(dst []LinkWeight, e types.Epoch, stake func(types.ValidatorIndex) types.Gwei) []LinkWeight {
	one := [1][]LinkWeight{dst}
	p.AppendWindowTally(one[:], e, stake)
	return one[0]
}

// resolveRow sets rows[id] to the row of that vote's link in dst[base:],
// appending a zero-weight row for a first-seen link.
//
//gasper:noalloc
func (ev *EpochVotes) resolveRow(dst []LinkWeight, base int, rows []int32, id uint32) []LinkWeight {
	d := &ev.table[id-1]
	l := Link{Source: d.Source, Target: d.Target}
	for i := base; i < len(dst); i++ {
		if dst[i].Link == l {
			rows[id] = int32(i)
			return dst
		}
	}
	rows[id] = int32(len(dst))
	return append(dst, LinkWeight{Link: l})
}

// tallyEquivocations credits w to the links of v's second and later votes.
// An equivocator's distinct data values may still share a link (same
// source/target, different head or slot); each link counts once, checked
// against the validator's own earlier votes.
//
//gasper:noalloc
func (ev *EpochVotes) tallyEquivocations(dst []LinkWeight, base int, rows []int32, v types.ValidatorIndex, w types.Gwei) []LinkWeight {
	var buf [8]uint32
	ids := ev.AppendVotes(buf[:0], v)
votes:
	for k := 1; k < len(ids); k++ {
		if rows[ids[k]] < 0 {
			dst = ev.resolveRow(dst, base, rows, ids[k])
		}
		row := rows[ids[k]]
		for _, earlier := range ids[:k] {
			if rows[earlier] == row {
				continue votes
			}
		}
		dst[row].Weight += w
	}
	return dst
}

// Clone deep-copies the pool, so a snapshotted view can evolve apart from
// its restore points: per epoch, the value table and the flat id columns.
func (p *Pool) Clone() *Pool {
	out := &Pool{epochs: make([]*EpochVotes, len(p.epochs)), width: p.width}
	for i, ev := range p.epochs {
		out.epochs[i] = ev.clone()
	}
	return out
}

func (ev *EpochVotes) clone() *EpochVotes {
	return &EpochVotes{
		epoch:  ev.epoch,
		table:  append([]Data(nil), ev.table...),
		srcMin: ev.srcMin,
		srcMax: ev.srcMax,
		first:  append([]uint32(nil), ev.first...),
		second: append([]uint32(nil), ev.second...),
		spill:  append([]spillVote(nil), ev.spill...),
		voted:  ev.voted,
	}
}

// Prune drops all attestations with target epoch strictly below e, bounding
// pool memory in long simulations — and, because the slashing detector
// reads the pool, the window in which an offense can still be proved.
// Up to maxSpares of the dropped epochs are kept aside, for open to reuse
// their storage.
func (p *Pool) Prune(e types.Epoch) {
	n := 0
	for n < len(p.epochs) && p.epochs[n].epoch < e {
		if len(p.spares) < maxSpares {
			p.spares = append(p.spares, p.epochs[n])
		}
		n++
	}
	p.epochs = slices.Delete(p.epochs, 0, n)
}

// Bytes reports the heap the pool's votes retain — per epoch the value
// table, the id columns and the spill, spares included — from slice
// capacities and element sizes, as blocktree.Tree.Stats and
// forkchoice.ProtoArray.Stats do for theirs.
func (p *Pool) Bytes() int {
	total := 0
	for _, evs := range [2][]*EpochVotes{p.epochs, p.spares} {
		for _, ev := range evs {
			total += int(unsafe.Sizeof(*ev)) + cap(ev.table)*int(unsafe.Sizeof(Data{})) +
				(cap(ev.first)+cap(ev.second))*4 + cap(ev.spill)*int(unsafe.Sizeof(spillVote{}))
		}
	}
	return total
}

// Link is a source->target checkpoint pair: the FFG vote proper.
type Link struct {
	Source types.Checkpoint
	Target types.Checkpoint
}

// String renders the link for logs.
func (l Link) String() string {
	return fmt.Sprintf("%d/%s -> %d/%s",
		l.Source.Epoch, l.Source.Root, l.Target.Epoch, l.Target.Root)
}
