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
	"bytes"
	"fmt"

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
// the attribution as authenticated (signatures are exercised separately in
// internal/crypto envelopes; carrying them on every simulated message would
// only slow the large sweeps down without changing any behavior).
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
// copies a few flat slices per epoch. The zero value is not usable;
// construct with NewPool.
type Pool struct {
	byEpoch map[types.Epoch]*epochVotes
	// width is the longest id column any epoch has needed (highest
	// validator index seen + 1). A new epoch's column is allocated at that
	// width in one piece instead of growing batch by batch.
	width int //gasper:nocodec allocation hint; DecodePool re-learns it from the decoded column lengths
	// rows is AppendLinkTally's per-call scratch.
	//gasper:nocodec scratch buffer; each pool re-grows its own
	//gasper:shallow scratch buffer; clones re-grow their own
	rows []int32
}

// epochVotes holds one target epoch's votes. An id is a table index plus
// one; zero means no vote.
type epochVotes struct {
	// table lists the distinct Data values seen with this target epoch, in
	// first-seen order.
	table []Data
	// first[v] is the id of validator v's first distinct vote; second[v]
	// that of its second (the equivocator's other face), nil until some
	// validator casts one and as long as first from then on. A validator's
	// third and later distinct votes go to spill in arrival order, so a
	// validator's votes in arrival order are first, second, then its spill
	// entries.
	first  []uint32
	second []uint32
	spill  []spillVote
}

// spillVote is a third-or-later distinct vote of one validator for one
// target epoch.
type spillVote struct {
	validator types.ValidatorIndex
	id        uint32
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{byEpoch: make(map[types.Epoch]*epochVotes)}
}

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
	ev := p.byEpoch[data.Target.Epoch]
	if ev == nil {
		//gasper:alloc first vote of a target epoch, once per epoch
		ev = &epochVotes{}
		p.byEpoch[data.Target.Epoch] = ev
	}
	id := ev.intern(data)
	need := 0
	for _, v := range validators {
		if int(v) >= need {
			need = int(v) + 1
		}
	}
	if need > p.width {
		p.width = need
	}
	if len(ev.first) < need {
		//gasper:alloc one-time column growth: an epoch's column is sized to the validator count in one piece
		first := make([]uint32, p.width)
		copy(first, ev.first)
		ev.first = first
		if ev.second != nil {
			//gasper:alloc one-time column growth, as above
			second := make([]uint32, p.width)
			copy(second, ev.second)
			ev.second = second
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

// intern returns d's id in the epoch's table, appending d on first sight.
// The scan runs newest first: a value is re-delivered soon after it is
// first seen, if at all.
//
//gasper:noalloc
func (ev *epochVotes) intern(d Data) uint32 {
	for i := len(ev.table) - 1; i >= 0; i-- {
		if ev.table[i] == d {
			return uint32(i + 1)
		}
	}
	ev.table = append(ev.table, d) //gasper:alloc the once-per-batch intern of a first-seen value
	return uint32(len(ev.table))
}

// addEquivocation records id as a second-or-later distinct vote of v,
// whose first vote differs from it. It reports whether the vote was new.
//
//gasper:noalloc
func (ev *epochVotes) addEquivocation(v types.ValidatorIndex, id uint32) bool {
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
	ev.spill = append(ev.spill, spillVote{validator: v, id: id}) //gasper:alloc rare: a third distinct vote for one target epoch
	return true
}

// voters returns the highest validator index holding a vote, plus one.
func (ev *epochVotes) voters() int {
	n := len(ev.first)
	for n > 0 && ev.first[n-1] == 0 {
		n--
	}
	return n
}

// appendVotes appends the ids of v's votes to dst, in arrival order.
//
//gasper:noalloc
func (ev *epochVotes) appendVotes(dst []uint32, v types.ValidatorIndex) []uint32 {
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
	ev := p.byEpoch[e]
	if ev == nil {
		return nil
	}
	out := make([][]Data, ev.voters())
	var ids []uint32
	for v := range out {
		ids = ev.appendVotes(ids[:0], types.ValidatorIndex(v))
		for _, id := range ids {
			out[v] = append(out[v], ev.table[id-1])
		}
	}
	return out
}

// Voted reports whether the validator cast any attestation with target
// epoch e.
func (p *Pool) Voted(e types.Epoch, v types.ValidatorIndex) bool {
	ev := p.byEpoch[e]
	return ev != nil && int(v) < len(ev.first) && ev.first[v] != 0
}

// VotedForTarget reports whether the validator cast an attestation with
// target epoch e whose target root matches root. The paper's activity
// criterion: a validator is active on a branch for an epoch iff it sent an
// attestation whose checkpoint vote is correct for that branch.
func (p *Pool) VotedForTarget(e types.Epoch, v types.ValidatorIndex, root types.Root) bool {
	var a Activity
	p.Activity(&a, e, root)
	return a.Active(v)
}

// Activity is the activity criterion of one (target epoch, target root)
// pair, ready to be asked about every validator in turn: the target is
// compared once per distinct vote of the epoch, and a validator's answer
// is then a column read. Load it with Pool.Activity; it reads the pool's
// columns in place and is valid until the pool is next mutated. The zero
// value reports nobody active; reloading reuses its storage.
type Activity struct {
	ev *epochVotes
	// match[id] reports whether the vote with that id names the root;
	// match[0], the id of no vote, is false.
	match []bool
}

// Activity loads into a the criterion "voted for root with target epoch
// e".
//
//gasper:noalloc
func (p *Pool) Activity(a *Activity, e types.Epoch, root types.Root) {
	a.ev = p.byEpoch[e]
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

// AppendLinkTally appends the per-link stake tally of target epoch e to
// dst and returns it. It is the allocation-free boundary-path counterpart
// of TargetWeights: one O(validators) sweep of the epoch's id column, with
// each distinct vote's link looked up among the rows once, on the first
// stake-bearing validator that cast it — rows therefore appear in the order
// ascending validators first give them weight. When dst has capacity, the
// sweep does not allocate. Equivocating validators count toward every
// distinct link they voted for, exactly as on-chain inclusion would credit
// them on each branch.
//
//gasper:noalloc
func (p *Pool) AppendLinkTally(dst []LinkWeight, e types.Epoch, stake func(types.ValidatorIndex) types.Gwei) []LinkWeight {
	ev := p.byEpoch[e]
	if ev == nil {
		return dst
	}
	base := len(dst)
	// rows[id] is the dst row of that vote's link, -1 until resolved.
	if cap(p.rows) <= len(ev.table) {
		p.rows = make([]int32, len(ev.table)+1) //gasper:alloc scratch growth, amortized to zero
	}
	rows := p.rows[:len(ev.table)+1]
	for i := range rows {
		rows[i] = -1
	}
	for v, id := range ev.first {
		if id == 0 {
			continue
		}
		w := stake(types.ValidatorIndex(v))
		if w == 0 {
			continue
		}
		// The hot path: one vote per validator per epoch.
		if rows[id] < 0 {
			dst = ev.resolveRow(dst, base, rows, id)
		}
		dst[rows[id]].Weight += w
		if ev.second != nil && ev.second[v] != 0 {
			dst = ev.tallyEquivocations(dst, base, rows, types.ValidatorIndex(v), w)
		}
	}
	return dst
}

// resolveRow sets rows[id] to the row of that vote's link in dst[base:],
// appending a zero-weight row for a first-seen link.
//
//gasper:noalloc
func (ev *epochVotes) resolveRow(dst []LinkWeight, base int, rows []int32, id uint32) []LinkWeight {
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
func (ev *epochVotes) tallyEquivocations(dst []LinkWeight, base int, rows []int32, v types.ValidatorIndex, w types.Gwei) []LinkWeight {
	var buf [8]uint32
	ids := ev.appendVotes(buf[:0], v)
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

// TargetWeights sums stake per (source, target) pair for the given target
// epoch, using the provided stake lookup. Equivocating validators count
// toward every distinct pair they voted for, exactly as on-chain inclusion
// would credit them on each branch. It is the map-form reference the
// columnar AppendLinkTally is tested against, computed from the
// materialized votes.
func (p *Pool) TargetWeights(e types.Epoch, stake func(types.ValidatorIndex) types.Gwei) map[Link]types.Gwei {
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

// Clone deep-copies the pool, so a snapshotted view can evolve apart from
// its restore points: per epoch, the value table and the flat id columns.
func (p *Pool) Clone() *Pool {
	out := &Pool{byEpoch: make(map[types.Epoch]*epochVotes, len(p.byEpoch)), width: p.width}
	//gasper:ordered each epoch is copied into its own entry of the new map
	for e, ev := range p.byEpoch {
		out.byEpoch[e] = ev.clone()
	}
	return out
}

func (ev *epochVotes) clone() *epochVotes {
	return &epochVotes{
		table:  append([]Data(nil), ev.table...),
		first:  append([]uint32(nil), ev.first...),
		second: append([]uint32(nil), ev.second...),
		spill:  append([]spillVote(nil), ev.spill...),
	}
}

// Prune drops all attestations with target epoch strictly below e, bounding
// pool memory in long simulations.
func (p *Pool) Prune(e types.Epoch) {
	for epoch := range p.byEpoch {
		if epoch < e {
			delete(p.byEpoch, epoch)
		}
	}
}

// Epochs returns the number of epochs currently retained (for tests and
// metrics).
func (p *Pool) Epochs() int { return len(p.byEpoch) }

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

// Less orders links by (source epoch, source root, target epoch, target
// root): the canonical order used wherever a map-derived set of links must
// be processed deterministically.
func (l Link) Less(o Link) bool {
	if l.Source.Epoch != o.Source.Epoch {
		return l.Source.Epoch < o.Source.Epoch
	}
	if c := bytes.Compare(l.Source.Root[:], o.Source.Root[:]); c != 0 {
		return c < 0
	}
	if l.Target.Epoch != o.Target.Epoch {
		return l.Target.Epoch < o.Target.Epoch
	}
	return bytes.Compare(l.Target.Root[:], o.Target.Root[:]) < 0
}
