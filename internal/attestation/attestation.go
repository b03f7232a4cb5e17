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
	"repro/internal/validator"
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
	// rows and sums are the tally's per-epoch scratch: each vote id's row
	// in the tally, and the stake behind it.
	//gasper:nocodec scratch buffer; each pool re-grows its own
	//gasper:shallow scratch buffer; clones re-grow their own
	rows []int32
	//gasper:nocodec scratch buffer; each pool re-grows its own
	//gasper:shallow scratch buffer; clones re-grow their own
	sums []types.Gwei
	// stakes and inSet are AppendLinkTally's scratch: the stake function's
	// answers as a column, and a status column that is all Active (its
	// zero value), since the function already answers zero out of the set.
	//gasper:nocodec scratch buffer; each pool re-grows its own
	//gasper:shallow scratch buffer; clones re-grow their own
	stakes []types.Gwei
	//gasper:nocodec scratch buffer; each pool re-grows its own
	//gasper:shallow scratch buffer; clones re-grow their own
	inSet []validator.Status
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
	// voted is the highest validator with a vote, plus one, and lead is at
	// most the lowest (while voted > 0): the boundary's sweeps run from lead
	// to voted, however wide first is sized (a view of one partition hears
	// only its own validators).
	voted int //gasper:nocodec derived from the column; a decoding walk recomputes it
	lead  int //gasper:nocodec derived from the column; a decoding walk recomputes it
	// bound is the heaviest link of the epoch's last window tally, held
	// while bounded: no vote has arrived since, and within a run stakes only
	// fall and no validator re-enters the set, so no link can weigh more.
	//gasper:nocodec derived from the last tally; a decoded epoch tallies afresh
	//gasper:shallow derived from the last tally; a cloned epoch tallies afresh
	bound types.Gwei
	//gasper:nocodec derived from the last tally; a decoded epoch tallies afresh
	//gasper:shallow derived from the last tally; a cloned epoch tallies afresh
	bounded bool
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
	need, low := 0, int(validators[0])
	for _, v := range validators {
		need, low = max(need, int(v)+1), min(low, int(v))
	}
	p.width = max(p.width, need)
	if ev.voted == 0 || low < ev.lead {
		ev.lead = low
	}
	ev.voted = max(ev.voted, need)
	if len(ev.first) < need {
		ev.first = widen(ev.first, p.width)
		if ev.second != nil {
			ev.second = widen(ev.second, p.width)
		}
	}
	base := len(dst)
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
	ev.bounded = ev.bounded && len(dst) == base
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
// pair as a dense column: the target is compared once per distinct vote of
// the epoch, and each validator's answer is then filled in one pass over
// the epoch's id columns. Pool.Activity loads it and returns the column,
// which the incentive sweep reads as is; the column is Activity's own
// storage, so it stays valid when the pool is mutated and until the next
// load, which reuses it.
type Activity struct {
	// active[v] reports whether validator v cast a matching vote; the
	// validators past it cast none.
	active []bool
	// match[id] reports whether the vote with that id names the root;
	// match[0], the id of no vote, is false.
	match []bool
}

// Activity loads into a the criterion "voted for root with target epoch
// e" and returns its column: entry v reports whether validator v cast a
// matching vote. The column is as long as the epoch's vote columns, empty
// for an epoch the pool does not hold; a validator past its end cast none.
//
//gasper:noalloc
func (p *Pool) Activity(a *Activity, e types.Epoch, root types.Root) []bool {
	a.active, a.match = a.active[:0], a.match[:0]
	ev := p.find(e)
	if ev == nil {
		return a.active
	}
	a.match = append(a.match, false)
	for i := range ev.table {
		a.match = append(a.match, ev.table[i].Target.Root == root)
	}
	if cap(a.active) < ev.voted {
		a.active = make([]bool, ev.voted) //gasper:alloc scratch growth, amortized to zero
	}
	active, match := a.active[:ev.voted], a.match
	clear(active[:ev.lead])
	for v := ev.lead; v < ev.voted; v++ {
		active[v] = match[ev.first[v]]
	}
	if ev.second != nil {
		for v := ev.lead; v < ev.voted; v++ {
			active[v] = active[v] || match[ev.second[v]]
		}
		for _, sp := range ev.spill {
			active[sp.validator] = active[sp.validator] || match[sp.id]
		}
	}
	a.active = active
	return active
}

// LinkWeight is one row of a columnar per-epoch tally: a distinct
// source->target link and the total stake behind it.
type LinkWeight struct {
	Link   Link
	Weight types.Gwei
}

// AppendWindowTally appends to dst[k] the per-link stake tally of target
// epoch lo+k, for every k, weighing each vote with its validator's stake in
// the registry columns when the validator is in the set, and returns the
// validator rows it swept. Each epoch is one
// pass over its id column beside the stake and status columns that sums
// stake per distinct vote in a scratch column and adds each sum to its
// link's row once. A distinct vote's link is looked up among its epoch's
// rows once, on the first stake-bearing validator that cast it — an epoch's
// rows therefore appear in the order ascending validators first give them
// weight. When the tallies have capacity, the pass does not allocate.
// Equivocating validators count toward every distinct link they voted for,
// exactly as on-chain inclusion would credit them on each branch.
//
// An epoch whose last tally bounds every link at no more than 2/3 of total,
// the in-set stake the caller weighs quorums against, is skipped and
// appends nothing: none of its links can be a supermajority link. The
// columns must be those the pool's earlier tallies read, later in the same
// run.
//
//gasper:noalloc
func (p *Pool) AppendWindowTally(dst [][]LinkWeight, lo types.Epoch, cols validator.Columns, total types.Gwei) (rows int) {
	for k := range dst {
		ev := p.find(lo + types.Epoch(k))
		if ev == nil || ev.bounded && 3*uint64(ev.bound) <= 2*uint64(total) {
			continue
		}
		base := len(dst[k])
		dst[k] = p.tally(dst[k], ev, cols.Stakes, cols.Status)
		ev.bound, ev.bounded = 0, true
		for _, lw := range dst[k][base:] {
			ev.bound = max(ev.bound, lw.Weight)
		}
		rows += max(0, min(ev.voted, len(cols.Stakes), len(cols.Status))-ev.lead)
	}
	return rows
}

// AppendLinkTally appends the per-link stake tally of target epoch e to
// dst and returns it, weighing each vote with stake(validator): the
// answers, asked of voters only, become a stake column, and the epoch is
// tallied as AppendWindowTally tallies it.
//
//gasper:noalloc
func (p *Pool) AppendLinkTally(dst []LinkWeight, e types.Epoch, stake func(types.ValidatorIndex) types.Gwei) []LinkWeight {
	ev := p.find(e)
	if ev == nil {
		return dst
	}
	if cap(p.stakes) < ev.voted {
		p.stakes = make([]types.Gwei, ev.voted) //gasper:alloc scratch growth, amortized to zero; covers both columns
		p.inSet = make([]validator.Status, ev.voted)
	}
	stakes := p.stakes[:ev.voted]
	for v, id := range ev.first[:ev.voted] {
		stakes[v] = 0
		if id != 0 {
			stakes[v] = stake(types.ValidatorIndex(v))
		}
	}
	return p.tally(dst, ev, stakes, p.inSet[:ev.voted])
}

// tally appends ev's per-link tally to dst, weighing validator v's votes
// with stakes[v] when status[v] is Active; validators past either column
// weigh nothing.
//
//gasper:noalloc
func (p *Pool) tally(dst []LinkWeight, ev *EpochVotes, stakes []types.Gwei, status []validator.Status) []LinkWeight {
	n := len(ev.table) + 1
	if cap(p.rows) < n {
		p.rows = make([]int32, n) //gasper:alloc scratch growth, amortized to zero; covers both columns
		p.sums = make([]types.Gwei, n)
	}
	rows, sums := p.rows[:n], p.sums[:n]
	for i := range rows {
		rows[i] = -1
	}
	clear(sums)
	base := len(dst)
	first := ev.first[:min(ev.voted, len(stakes), len(status))]
	stakes, status = stakes[:len(first)], status[:len(first)]
	second := ev.second
	// The inner loop makes no call: it adds a validator's stake to its
	// vote's sum, and leaves to the outer one a vote's first stake, which
	// may open its link's row, and an equivocator's other votes.
	for v := ev.lead; v < len(first); v++ {
		var id uint32
		var s types.Gwei
		for ; v < len(first); v++ {
			id, s = first[v], stakes[v]
			if id == 0 || s == 0 || status[v] != validator.Active {
				continue
			}
			sum := sums[id]
			if sum == 0 || second != nil && second[v] != 0 {
				break
			}
			sums[id] = sum + s
		}
		if v == len(first) {
			break
		}
		if rows[id] < 0 {
			dst = ev.resolveRow(dst, base, rows, id)
		}
		sums[id] += s
		if second != nil && second[v] != 0 {
			dst = ev.tallyEquivocations(dst, base, rows, types.ValidatorIndex(v), s)
		}
	}
	for id, sum := range sums {
		if sum != 0 {
			dst[rows[id]].Weight += sum
		}
	}
	return dst
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
		lead:   ev.lead,
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
