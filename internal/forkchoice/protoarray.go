package forkchoice

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/blocktree"
	"repro/internal/types"
)

// ProtoArray is the incremental LMD-GHOST engine. It mirrors the block
// tree's flat index space (blocktree.Tree stores insertion-ordered nodes
// with parent/first-child/next-sibling links) and keeps, per node, the
// subtree weight plus a cached best-child pointer.
//
// Latest messages live in columnar per-validator slices: a 4-byte id into
// the engine's root table (0 for no vote) and a 4-byte slot, 8 bytes where
// a root, a slot and a flag took 41. A view's validators vote for a
// handful of distinct roots, so the table stays short; a batch interns
// its root once, and when the table has doubled past the ids still voted
// for it is renumbered down to those. When a validator's vote moves from
// block A to B — or its stake changes with a justified-state advance —
// nothing is walked: the stake is queued as a negative delta on A and a
// positive delta on B, one delta per run of validators moving between the
// same blocks, and the touched nodes join a frontier worklist. The next
// head query settles only the paths from touched nodes to the root: a
// max-index heap pops nodes children first (the array order is
// topological, so a child's index always exceeds its parent's), each pop
// folds the node's delta into its weight, pushes the delta to its parent,
// and re-scans its children for the best-child cache. A path ends where
// its delta cancels: a vote moving from a block to a descendant a few
// dozen blocks below it settles those few dozen nodes and nothing above
// them, however deep the chain is.
//
// The canonical chain (the best-child path from the array root) is cached
// and maintained incrementally: settling records the shallowest canonical
// position whose best-child pointer flipped and re-descends only from
// there. A head query from a block on that chain is the chain's tip — O(1),
// zero allocations, independent of validator count and chain depth — and a
// filtered one leaves the chain at the shallowest hidden block, found by
// looking up each hidden root's position rather than walking the chain.
//
// Votes targeting blocks the view has not received yet are parked in an
// unresolved list and re-queued when the tree grows, exactly matching the
// oracle's "ignore votes for missing blocks" semantics. PruneBelow and
// Compact bump the tree's Version, which voids the index space; the
// engine detects it and rebuilds from the retained votes (an
// O(validators + tree) event that happens only when finality advances or
// the tree folds its cold spine). The zero value is an empty engine.
type ProtoArray struct {
	// Per-validator columns (latest messages and applied weight state).
	// voteID[v] names v's latest vote's root in roots; 0 is no vote.
	voteID   []uint32
	voteSlot []uint32
	stakes   []types.Gwei
	//gasper:nocodec applied-vote cache; the first sync after decode re-applies every vote
	appliedIdx []int32 // node currently credited with the vote; NoIndex if none
	//gasper:nocodec applied-vote cache; the first sync after decode re-applies every vote
	appliedStake []types.Gwei
	voted        int

	// Root table: roots[id] is the block root of vote id, roots[0] unused.
	// lastID is the id the previous intern returned; once len(roots)
	// reaches renumberAt and renumberFloor, the next new root first
	// renumbers the table down to the ids voteID holds.
	roots      []types.Root
	lastID     uint32       //gasper:nocodec intern shortcut; zero only costs the first decoded row a scan
	renumberAt int          //gasper:nocodec table bound; a decoded table starts at the floor
	spareRoots []types.Root //gasper:nocodec renumber scratch
	idScratch  []int32      //gasper:nocodec renumber and rebuild scratch

	// Worklists. changed holds validators whose vote or stake moved since
	// the last apply; unresolved holds validators whose current vote
	// target is not in the tree (re-queued when blocks arrive).
	changed      []int32 //gasper:nocodec worklist; decode marks every vote changed, repopulating it
	inChanged    []bool  //gasper:nocodec worklist membership; repopulated with changed
	unresolved   []int32 //gasper:nocodec worklist; re-derived when the first sync re-applies votes
	inUnresolved []bool  //gasper:nocodec worklist membership; repopulated with unresolved

	// Per-node columns, mirroring the cached tree's index space.
	tree        *blocktree.Tree //gasper:nocodec borrowed tree handle; the owner re-syncs after decode
	treeVersion uint64          //gasper:nocodec cache version; zero forces the first sync to rebuild
	weights     []types.Gwei    //gasper:nocodec per-node cache over the tree; rebuilt by the first sync
	deltas      []int64         //gasper:nocodec per-node cache over the tree; rebuilt by the first sync
	bestChild   []int32         //gasper:nocodec per-node cache over the tree; rebuilt by the first sync

	// Settle frontier: node indices with a pending delta or a child whose
	// weight moved or that is new, kept as a max-index heap so children
	// always pop before their parents.
	touched   []int32 //gasper:nocodec settle frontier; re-derived by the first sync
	inTouched []bool  //gasper:nocodec settle frontier membership; re-derived by the first sync

	// Canonical-chain cache: canon is the best-child path from the array
	// root; canonPos[i] is i's position on that path, -1 when off-chain.
	canon    []int32 //gasper:nocodec canonical-chain cache; rebuilt by the first sync
	canonPos []int32 //gasper:nocodec canonical-chain cache; rebuilt by the first sync
}

// Reset implements Engine: the columns are emptied, not freed, so sizing
// them for the next run's validators and tree reuses their storage.
func (p *ProtoArray) Reset() {
	*p = ProtoArray{
		voteID: p.voteID[:0], voteSlot: p.voteSlot[:0],
		stakes: p.stakes[:0], appliedIdx: p.appliedIdx[:0], appliedStake: p.appliedStake[:0],
		roots: p.roots[:0], spareRoots: p.spareRoots[:0], idScratch: p.idScratch[:0],
		changed: p.changed[:0], inChanged: p.inChanged[:0],
		unresolved: p.unresolved[:0], inUnresolved: p.inUnresolved[:0],
		weights: p.weights[:0], deltas: p.deltas[:0], bestChild: p.bestChild[:0],
		touched: p.touched[:0], inTouched: p.inTouched[:0],
		canon: p.canon[:0], canonPos: p.canonPos[:0],
	}
}

// ensureValidators grows the per-validator columns to hold n validators.
func (p *ProtoArray) ensureValidators(n int) {
	have := len(p.voteID)
	if have >= n {
		return
	}
	// Grow each column in one step: element-at-a-time appends re-copy all
	// seven columns on every size-class doubling, which at paper scale
	// makes first-touch (UpdateStakes over the whole set) a hot spot.
	p.voteID = append(p.voteID, make([]uint32, n-have)...)
	p.voteSlot = append(p.voteSlot, make([]uint32, n-have)...)
	p.stakes = append(p.stakes, make([]types.Gwei, n-have)...)
	p.appliedStake = append(p.appliedStake, make([]types.Gwei, n-have)...)
	p.inChanged = append(p.inChanged, make([]bool, n-have)...)
	p.inUnresolved = append(p.inUnresolved, make([]bool, n-have)...)
	p.appliedIdx = append(p.appliedIdx, make([]int32, n-have)...)
	for i := have; i < n; i++ {
		p.appliedIdx[i] = blocktree.NoIndex
	}
}

func (p *ProtoArray) markChanged(v int32) {
	if !p.inChanged[v] {
		p.inChanged[v] = true
		p.changed = append(p.changed, v)
	}
}

// Process implements Engine: ProcessBatch with one validator.
func (p *ProtoArray) Process(v types.ValidatorIndex, root types.Root, slot types.Slot) bool {
	one := [1]types.ValidatorIndex{v}
	return p.ProcessBatch(one[:], root, slot) == 1
}

// ProcessBatch implements Engine. The columns are sized once for the whole
// batch, its root is interned once, on the first vote it replaces, and the
// validators it queues sit next to each other on the changed worklist,
// where applyChanged resolves their shared id once. Slots are held in 32
// bits, 1,600 years of 12-second slots: a later slot is held as the last
// one, where the first vote to reach it stands.
//
//gasper:noalloc
func (p *ProtoArray) ProcessBatch(validators []types.ValidatorIndex, root types.Root, slot types.Slot) int {
	slot = min(slot, math.MaxUint32)
	need := 0
	for _, v := range validators {
		if int(v) >= need {
			need = int(v) + 1
		}
	}
	p.ensureValidators(need)
	replaced := 0
	id := uint32(0)
	for _, v := range validators {
		if p.voteID[v] == 0 {
			p.voted++
		} else if types.Slot(p.voteSlot[v]) >= slot {
			continue
		}
		if id == 0 {
			id = p.intern(root)
		}
		p.voteID[v] = id
		p.voteSlot[v] = uint32(slot)
		p.markChanged(int32(v))
		replaced++
	}
	return replaced
}

// internScan bounds intern's search of the table: a view's latest votes
// name a handful of roots, and a root older than the newest internScan ids
// takes a second id, which costs a table entry, not correctness.
const internScan = 64

// renumberFloor is the table length below which intern never renumbers. A
// renumber reads and rewrites the whole id column, and a view takes about
// one new root a slot, so the floor is one entry per 32 validators, from 16
// to 256: a 10^4-validator view renumbers about every seven epochs (at 64
// entries, every epoch and a half, 2 % of a leak's CPU samples), and a
// 16-validator view keeps a 16-entry table.
func (p *ProtoArray) renumberFloor() int {
	return min(max(len(p.voteID)/32, 16), 256)
}

// intern returns root's id, found or added; a new id past renumberAt first
// renumbers the table.
func (p *ProtoArray) intern(root types.Root) uint32 {
	if id, ok := p.find(root); ok {
		return id
	}
	if len(p.roots) >= max(p.renumberAt, p.renumberFloor()) {
		p.renumber()
	}
	return p.add(root)
}

// find returns the previous intern's id when root is the same, else the
// newest id holding it among the newest internScan.
func (p *ProtoArray) find(root types.Root) (uint32, bool) {
	if p.lastID != 0 && p.roots[p.lastID] == root {
		return p.lastID, true
	}
	for id := len(p.roots) - 1; id > 0 && id >= len(p.roots)-internScan; id-- {
		if p.roots[id] == root {
			p.lastID = uint32(id)
			return p.lastID, true
		}
	}
	return 0, false
}

// add gives root a new id.
func (p *ProtoArray) add(root types.Root) uint32 {
	if len(p.roots) == 0 {
		if cap(p.roots) == 0 {
			// The table, the spare a renumber builds into and its scratch
			// are made once, at the floor, instead of reallocating their
			// way up to it through a run's first epochs.
			floor := p.renumberFloor()
			p.roots = make([]types.Root, 0, floor)
			p.spareRoots = make([]types.Root, 0, floor)
			p.idScratch = make([]int32, 0, floor)
		}
		p.roots = append(p.roots, types.Root{})
	}
	p.lastID = uint32(len(p.roots))
	p.roots = append(p.roots, root)
	return p.lastID
}

// renumber rewrites the table as the ids voteID holds, in their old order,
// and voteID to match; the next renumber waits until the table has doubled
// past them. The new table is built in the spare one and the two swap.
func (p *ProtoArray) renumber() {
	remap := append(p.idScratch[:0], make([]int32, len(p.roots))...)
	for _, id := range p.voteID {
		remap[id] = 1
	}
	next := append(p.spareRoots[:0], types.Root{})
	for id := 1; id < len(p.roots); id++ {
		if remap[id] != 0 {
			remap[id] = int32(len(next))
			next = append(next, p.roots[id])
		}
	}
	remap[0] = 0
	for v, id := range p.voteID {
		p.voteID[v] = uint32(remap[id])
	}
	p.lastID = uint32(remap[p.lastID])
	p.roots, p.spareRoots, p.idScratch = next, p.roots, remap
	p.renumberAt = 2 * len(next)
}

// Latest implements Engine.
func (p *ProtoArray) Latest(v types.ValidatorIndex) (Message, bool) {
	if int(v) >= len(p.voteID) || p.voteID[v] == 0 {
		return Message{}, false
	}
	return Message{Root: p.roots[p.voteID[v]], Slot: types.Slot(p.voteSlot[v])}, true
}

// Len implements Engine.
func (p *ProtoArray) Len() int { return p.voted }

// UpdateStakes implements Engine. Only validators whose stake actually
// moved are re-queued, so a justified-state advance costs one column scan
// plus deltas proportional to the number of balances that changed.
func (p *ProtoArray) UpdateStakes(n int, stake func(types.ValidatorIndex) types.Gwei) {
	p.ensureValidators(n)
	for i := 0; i < n; i++ {
		s := stake(types.ValidatorIndex(i))
		if s == p.stakes[i] {
			continue
		}
		p.stakes[i] = s
		if p.voteID[i] != 0 {
			p.markChanged(int32(i))
		}
	}
}

// sync brings the node columns up to date with tree: rebuild on identity or
// version change, extend on growth, then apply queued vote deltas and — if
// anything moved — settle the touched frontier up to the root.
func (p *ProtoArray) sync(tree *blocktree.Tree) {
	if tree != p.tree || tree.Version() != p.treeVersion {
		p.rebuild(tree)
		return
	}
	if n := tree.Len(); n > len(p.weights) {
		for len(p.weights) < n {
			i := int32(len(p.weights))
			p.weights = append(p.weights, 0)
			p.deltas = append(p.deltas, 0)
			p.bestChild = append(p.bestChild, blocktree.NoIndex)
			p.inTouched = append(p.inTouched, false)
			p.canonPos = append(p.canonPos, -1)
			// Even with no votes, a fresh leaf can win its parent's
			// tie-break, so the parent must re-scan its children.
			p.touch(tree.ParentIndex(i))
		}
		// Parked votes may now resolve against the new blocks.
		for _, v := range p.unresolved {
			p.inUnresolved[v] = false
			p.markChanged(v)
		}
		p.unresolved = p.unresolved[:0]
	}
	p.applyChanged(tree)
	if len(p.touched) > 0 {
		p.settle(tree)
	}
}

// applyChanged drains the changed worklist into per-node deltas. A batch
// queues its validators together and they share one id, so the id is
// resolved to its node index once per run of validators voting for it, and
// the stake the run moves out of one node, or into one, is one delta: the
// deltas are integer sums, and settle pops by node index whatever order
// they were touched in, so the result is the per-validator one.
func (p *ProtoArray) applyChanged(tree *blocktree.Tree) {
	if len(p.changed) == 0 {
		return
	}
	runID, runIdx := uint32(0), blocktree.NoIndex
	out := runDelta{node: blocktree.NoIndex}
	in := runDelta{node: blocktree.NoIndex}
	for _, v := range p.changed {
		p.inChanged[v] = false
		newIdx := blocktree.NoIndex
		if id := p.voteID[v]; id != 0 {
			if id != runID {
				runID, runIdx = id, blocktree.NoIndex
				if i, ok := tree.IndexOf(p.roots[id]); ok {
					runIdx = i
				}
			}
			newIdx = runIdx
		}
		newStake := p.stakes[v]
		if newIdx == p.appliedIdx[v] && (newIdx == blocktree.NoIndex || newStake == p.appliedStake[v]) {
			p.parkUnresolved(v, newIdx)
			continue
		}
		if p.appliedIdx[v] != blocktree.NoIndex && p.appliedStake[v] != 0 {
			p.addDelta(&out, p.appliedIdx[v], -int64(p.appliedStake[v]))
		}
		if newIdx != blocktree.NoIndex {
			if newStake != 0 {
				p.addDelta(&in, newIdx, int64(newStake))
			}
			p.appliedIdx[v] = newIdx
			p.appliedStake[v] = newStake
		} else {
			p.appliedIdx[v] = blocktree.NoIndex
			p.appliedStake[v] = 0
			p.parkUnresolved(v, newIdx)
		}
	}
	p.flushDelta(out)
	p.flushDelta(in)
	p.changed = p.changed[:0]
}

// runDelta is the stake a run of changed validators moves out of, or into,
// one node.
type runDelta struct {
	node int32
	sum  int64
}

// addDelta adds w to the run on node, first flushing a run on another node.
func (p *ProtoArray) addDelta(r *runDelta, node int32, w int64) {
	if node != r.node {
		p.flushDelta(*r)
		r.node, r.sum = node, 0
	}
	r.sum += w
}

// flushDelta queues a run's stake on its node and touches it. A run's
// stakes share a sign and none is zero, so its sum is not zero either.
func (p *ProtoArray) flushDelta(r runDelta) {
	if r.node != blocktree.NoIndex {
		p.deltas[r.node] += r.sum
		p.touch(r.node)
	}
}

// parkUnresolved records that v's current vote target is missing from the
// tree, so tree growth re-queues it.
func (p *ProtoArray) parkUnresolved(v int32, resolvedIdx int32) {
	if resolvedIdx == blocktree.NoIndex && p.voteID[v] != 0 && !p.inUnresolved[v] {
		p.inUnresolved[v] = true
		p.unresolved = append(p.unresolved, v)
	}
}

// touch enqueues node i on the settle frontier (deduped max-index heap).
func (p *ProtoArray) touch(i int32) {
	if i == blocktree.NoIndex || p.inTouched[i] {
		return
	}
	p.inTouched[i] = true
	p.touched = append(p.touched, i)
	k := len(p.touched) - 1
	for k > 0 {
		up := (k - 1) / 2
		if p.touched[up] >= p.touched[k] {
			break
		}
		p.touched[up], p.touched[k] = p.touched[k], p.touched[up]
		k = up
	}
}

// popTouched removes and returns the highest node index on the frontier.
func (p *ProtoArray) popTouched() int32 {
	top := p.touched[0]
	p.inTouched[top] = false
	n := len(p.touched) - 1
	p.touched[0] = p.touched[n]
	p.touched = p.touched[:n]
	k := 0
	for {
		c := 2*k + 1
		if c >= n {
			break
		}
		if c+1 < n && p.touched[c+1] > p.touched[c] {
			c++
		}
		if p.touched[k] >= p.touched[c] {
			break
		}
		p.touched[k], p.touched[c] = p.touched[c], p.touched[k]
		k = c
	}
	return top
}

// settle drains the frontier children-first: each pop folds the node's
// pending delta into its weight, refreshes its best-child cache from its
// (already settled) children, and propagates the delta to its parent — the
// parent is re-touched only when the weight it sees moved, which is all its
// own best-child choice depends on. The array is topological (a child's
// index always exceeds its parent's) and the heap pops by descending index,
// so every touched node is processed exactly once and cost is proportional
// to the paths from changed nodes up to where their deltas cancel, not to
// tree size or chain depth. When a best-child pointer on the canonical chain
// flips, the chain is re-descended from the shallowest flip only.
func (p *ProtoArray) settle(tree *blocktree.Tree) {
	minFlip := int32(-1)
	for len(p.touched) > 0 {
		i := p.popTouched()
		d := p.deltas[i]
		if d != 0 {
			p.weights[i] = types.Gwei(int64(p.weights[i]) + d)
			p.deltas[i] = 0
			if pi := tree.ParentIndex(i); pi != blocktree.NoIndex {
				p.deltas[pi] += d
				p.touch(pi)
			}
		}
		bc := p.bestChildOf(tree, i, nil)
		if bc != p.bestChild[i] {
			p.bestChild[i] = bc
			if pos := p.canonPos[i]; pos >= 0 && (minFlip < 0 || pos < minFlip) {
				minFlip = pos
			}
		}
	}
	if minFlip >= 0 {
		p.extendCanon(minFlip)
	}
}

// bestChildOf scans i's children for the heaviest one not named in hidden,
// ties to the smaller root; NoIndex when there is none.
func (p *ProtoArray) bestChildOf(tree *blocktree.Tree, i int32, hidden []types.Root) int32 {
	bc := blocktree.NoIndex
	for c := tree.FirstChild(i); c != blocktree.NoIndex; c = tree.NextSibling(c) {
		if slices.Contains(hidden, tree.BlockAt(c).Root) {
			continue
		}
		if bc == blocktree.NoIndex || p.weights[c] > p.weights[bc] ||
			(p.weights[c] == p.weights[bc] && lessRoot(tree.BlockAt(c).Root, tree.BlockAt(bc).Root)) {
			bc = c
		}
	}
	return bc
}

// extendCanon truncates the canonical chain at position from and re-follows
// best-child pointers down to the new tip.
func (p *ProtoArray) extendCanon(from int32) {
	for _, i := range p.canon[from+1:] {
		p.canonPos[i] = -1
	}
	p.canon = p.canon[:from+1]
	i := p.canon[from]
	for p.bestChild[i] != blocktree.NoIndex {
		i = p.bestChild[i]
		p.canonPos[i] = int32(len(p.canon))
		p.canon = append(p.canon, i)
	}
}

// rebuild reconstructs the node columns and applied-vote state from scratch
// against a new tree identity or index space (post-prune).
func (p *ProtoArray) rebuild(tree *blocktree.Tree) {
	p.tree = tree
	p.treeVersion = tree.Version()
	n := tree.Len()
	// The three columns are appended in lockstep but their capacities can
	// still diverge: CloneEngine's append(nil, ...) rounds each column to
	// its own allocation size class, so a 4-byte column may hold exactly n
	// entries while its 8-byte sibling was rounded up past n. Check every
	// column before taking the reslice fast path.
	if cap(p.weights) < n || cap(p.deltas) < n || cap(p.bestChild) < n {
		p.weights = make([]types.Gwei, n)
		p.deltas = make([]int64, n)
		p.bestChild = make([]int32, n)
	} else {
		p.weights = p.weights[:n]
		p.deltas = p.deltas[:n]
		p.bestChild = p.bestChild[:n]
	}
	for i := range p.weights {
		p.weights[i] = 0
		p.deltas[i] = 0
	}
	p.touched = p.touched[:0]
	if cap(p.inTouched) < n {
		p.inTouched = make([]bool, n)
	} else {
		p.inTouched = p.inTouched[:n]
		for i := range p.inTouched {
			p.inTouched[i] = false
		}
	}
	if cap(p.canonPos) < n {
		p.canonPos = make([]int32, n)
	} else {
		p.canonPos = p.canonPos[:n]
	}
	for i := range p.canonPos {
		p.canonPos[i] = -1
	}
	p.canon = p.canon[:0]
	for _, v := range p.changed {
		p.inChanged[v] = false
	}
	p.changed = p.changed[:0]
	for _, v := range p.unresolved {
		p.inUnresolved[v] = false
	}
	p.unresolved = p.unresolved[:0]
	// Each id is resolved once; idScratch[id] is its node index.
	idIdx := append(p.idScratch[:0], make([]int32, len(p.roots))...)
	for id := 1; id < len(p.roots); id++ {
		idIdx[id] = blocktree.NoIndex
		if i, ok := tree.IndexOf(p.roots[id]); ok {
			idIdx[id] = i
		}
	}
	p.idScratch = idIdx
	for v, id := range p.voteID {
		p.appliedIdx[v] = blocktree.NoIndex
		p.appliedStake[v] = 0
		if id == 0 {
			continue
		}
		if i := idIdx[id]; i != blocktree.NoIndex {
			st := p.stakes[v]
			p.appliedIdx[v] = i
			p.appliedStake[v] = st
			p.deltas[i] += int64(st)
		} else {
			p.inUnresolved[v] = true
			p.unresolved = append(p.unresolved, int32(v))
		}
	}
	p.recompute(tree)
	p.canon = append(p.canon, 0)
	p.canonPos[0] = 0
	p.extendCanon(0)
}

// recompute settles pending deltas into subtree weights and refreshes the
// best-child cache in one reverse (leaf-to-root) pass — the full-array
// sweep, used only by rebuild; incremental updates go through settle. The
// array is topological, so by the time a node is visited every child's
// weight is final.
func (p *ProtoArray) recompute(tree *blocktree.Tree) {
	for i := int32(len(p.weights)) - 1; i >= 0; i-- {
		if d := p.deltas[i]; d != 0 {
			p.weights[i] = types.Gwei(int64(p.weights[i]) + d)
			if pi := tree.ParentIndex(i); pi != blocktree.NoIndex {
				p.deltas[pi] += d
			}
			p.deltas[i] = 0
		}
		p.bestChild[i] = p.bestChildOf(tree, i, nil)
	}
}

// Head implements Engine: HeadFiltered with nothing hidden.
//
//gasper:noalloc
func (p *ProtoArray) Head(tree *blocktree.Tree, start types.Root) (types.Root, error) {
	return p.HeadFiltered(tree, start, nil)
}

// HeadFiltered implements Engine. From a block on the canonical chain the
// unfiltered descent is that chain, and the filtered one follows it down to
// the parent of the shallowest hidden block below start — found by looking
// up each hidden root's chain position, so the cost is in len(hidden), not
// in the blocks since start. From there, or from a start off the chain, the
// descent takes the cached best child — when not hidden it is by definition
// the best visible child — and re-scans siblings only where the best child
// is hidden, exactly matching the oracle's descent. Hidden roots that are
// absent from the tree, off the path, or at or above start change nothing.
//
//gasper:noalloc
func (p *ProtoArray) HeadFiltered(tree *blocktree.Tree, start types.Root, hidden []types.Root) (types.Root, error) {
	p.sync(tree)
	i, ok := tree.IndexOf(start)
	if !ok {
		return types.Root{}, fmt.Errorf("%w: %s", ErrUnknownStart, start) //gasper:alloc error exit: unknown start root aborts the query
	}
	if pos := p.canonPos[i]; pos >= 0 {
		stop := int32(len(p.canon))
		for _, h := range hidden {
			if hi, ok := tree.IndexOf(h); ok {
				if hp := p.canonPos[hi]; hp > pos && hp < stop {
					stop = hp
				}
			}
		}
		i = p.canon[stop-1]
	}
	for {
		bc := p.bestChild[i]
		if bc != blocktree.NoIndex && slices.Contains(hidden, tree.BlockAt(bc).Root) {
			bc = p.bestChildOf(tree, i, hidden)
		}
		if bc == blocktree.NoIndex {
			return tree.BlockAt(i).Root, nil
		}
		i = bc
	}
}

// SubtreeWeight implements Engine.
func (p *ProtoArray) SubtreeWeight(tree *blocktree.Tree, root types.Root) (types.Gwei, error) {
	p.sync(tree)
	i, ok := tree.IndexOf(root)
	if !ok {
		return 0, nil
	}
	return p.weights[i], nil
}

// CloneEngine implements Engine: every column is a flat copy (no maps to
// rehash), so forking a paper-scale view is a handful of memcpys. The
// cached tree identity is retained — a clone queried against the same tree
// stays incremental; against a cloned tree it detects the new identity and
// rebuilds once.
func (p *ProtoArray) CloneEngine() Engine {
	out := &ProtoArray{
		voteID:       append([]uint32(nil), p.voteID...),
		voteSlot:     append([]uint32(nil), p.voteSlot...),
		stakes:       append([]types.Gwei(nil), p.stakes...),
		appliedIdx:   append([]int32(nil), p.appliedIdx...),
		appliedStake: append([]types.Gwei(nil), p.appliedStake...),
		voted:        p.voted,
		roots:        append(make([]types.Root, 0, cap(p.roots)), p.roots...),
		lastID:       p.lastID,
		renumberAt:   p.renumberAt,
		spareRoots:   make([]types.Root, 0, cap(p.spareRoots)),
		idScratch:    make([]int32, 0, cap(p.idScratch)),
		changed:      append([]int32(nil), p.changed...),
		inChanged:    append([]bool(nil), p.inChanged...),
		unresolved:   append([]int32(nil), p.unresolved...),
		inUnresolved: append([]bool(nil), p.inUnresolved...),
		tree:         p.tree,
		treeVersion:  p.treeVersion,
		weights:      append([]types.Gwei(nil), p.weights...),
		deltas:       append([]int64(nil), p.deltas...),
		bestChild:    append([]int32(nil), p.bestChild...),
		touched:      append([]int32(nil), p.touched...),
		inTouched:    append([]bool(nil), p.inTouched...),
		canon:        append([]int32(nil), p.canon...),
		canonPos:     append([]int32(nil), p.canonPos...),
	}
	return out
}

// Stats reports the sizes of the engine's retained columns: the memory
// half of the leak-depth story. Bytes is an estimate from slice capacities
// and element sizes (map overhead in the mirrored tree is reported by
// blocktree.Tree.Stats, not here).
type Stats struct {
	Nodes      int // node-column height (mirrored tree nodes)
	Validators int // validator-column height
	Bytes      int // approximate retained bytes across all columns
}

// Stats returns the engine's current column sizes.
func (p *ProtoArray) Stats() Stats {
	rootSz := int(unsafe.Sizeof(types.Root{}))
	bytes := cap(p.voteID)*4 + cap(p.voteSlot)*4 + cap(p.stakes)*8 +
		(cap(p.roots)+cap(p.spareRoots))*rootSz + cap(p.idScratch)*4 +
		cap(p.appliedIdx)*4 + cap(p.appliedStake)*8 +
		cap(p.changed)*4 + cap(p.inChanged) +
		cap(p.unresolved)*4 + cap(p.inUnresolved) +
		cap(p.weights)*8 + cap(p.deltas)*8 +
		cap(p.bestChild)*4 +
		cap(p.touched)*4 + cap(p.inTouched) +
		cap(p.canon)*4 + cap(p.canonPos)*4
	return Stats{Nodes: len(p.weights), Validators: len(p.voteID), Bytes: bytes}
}
