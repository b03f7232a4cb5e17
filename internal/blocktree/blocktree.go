// Package blocktree stores the tree-like block structure every validator
// maintains locally (paper Section 2: "Validators keep a local data
// structure in form of a tree containing all the blocks perceived").
//
// It offers ancestry queries, checkpoint-block resolution (the block that a
// checkpoint (b, e) refers to is the last block at or before the first slot
// of epoch e on the branch), and chain extraction — the primitives that the
// fork-choice rule and the FFG finality engine are built on.
//
// Storage is flat: blocks live in an insertion-ordered node array with
// parent/first-child/next-sibling index links, plus a root→index map. The
// array order is topological (a parent always precedes its children), and
// every index stays stable until PruneBelow compacts the array — each
// compaction bumps Version, which incremental consumers (the proto-array
// fork-choice engine in internal/forkchoice) watch to know when their
// cached indices are void. Ancestry walks are integer chases with no map
// lookups.
package blocktree

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"unsafe"

	"repro/internal/types"
)

// Sentinel errors for tree operations.
var (
	ErrUnknownBlock  = errors.New("blocktree: unknown block")
	ErrUnknownParent = errors.New("blocktree: unknown parent")
	ErrDuplicate     = errors.New("blocktree: duplicate block")
	ErrBadSlot       = errors.New("blocktree: slot not after parent slot")
	// ErrCompactedRange reports an ancestor-at-slot query whose answer was
	// folded away by Compact: the walk crossed a summarized segment that
	// could contain the true answer. Callers querying inside the retention
	// window (Compact's olderThan horizon) never see it.
	ErrCompactedRange = errors.New("blocktree: ancestor query crosses a compacted range")
)

// NoIndex marks "no node" in the index-link accessors (missing parent,
// child, or sibling).
const NoIndex int32 = -1

// Block is a vertex of the tree. Payload contents are irrelevant to the
// consensus analysis; identity, position, and parentage are everything.
type Block struct {
	Slot     types.Slot
	Root     types.Root
	Parent   types.Root
	Proposer types.ValidatorIndex
}

// node is one slot of the flat array: the block plus its structural links.
type node struct {
	block       Block
	parent      int32
	firstChild  int32
	lastChild   int32
	nextSibling int32
	// foldedBelow counts the blocks Compact folded away between this node
	// and its parent: a nonzero value marks the parent link as an
	// ancestor-skip link summarizing a segment of the spine.
	foldedBelow int32
}

// Tree is an append-only block tree rooted at a genesis block. The zero
// value is not usable; construct with New.
type Tree struct {
	nodes   []node
	index   map[types.Root]int32 //gasper:nocodec root index; DecodeTree rebuilds it from the parent links
	version uint64
	// folded is the lifetime count of blocks removed by Compact.
	folded int
}

// New creates a tree containing only the genesis block at slot 0.
func New(genesis types.Root) *Tree {
	t := &Tree{index: make(map[types.Root]int32)}
	t.nodes = append(t.nodes, node{
		block:       Block{Slot: 0, Root: genesis},
		parent:      NoIndex,
		firstChild:  NoIndex,
		lastChild:   NoIndex,
		nextSibling: NoIndex,
	})
	t.index[genesis] = 0
	return t
}

// Clone deep-copies the tree. The clone starts a fresh identity: consumers
// caching indices against the original (the proto-array fork-choice
// engine) detect the new tree pointer and rebuild. The clone's node array
// is sized to the live blocks: the slack a compaction leaves behind stays
// with the original.
func (t *Tree) Clone() *Tree {
	out := &Tree{
		nodes:   make([]node, len(t.nodes)),
		index:   make(map[types.Root]int32, len(t.index)),
		version: t.version,
		folded:  t.folded,
	}
	copy(out.nodes, t.nodes)
	//gasper:ordered per-key copy into a fresh map: the clone is the same whatever the order
	for r, i := range t.index {
		out.index[r] = i
	}
	return out
}

// Genesis returns the root of the tree's effective root block (the original
// genesis, or the finalized block PruneBelow promoted).
func (t *Tree) Genesis() types.Root { return t.nodes[0].block.Root }

// Len returns the number of blocks in the tree, genesis included.
func (t *Tree) Len() int { return len(t.nodes) }

// Version identifies the current index space. It is bumped whenever node
// indices are invalidated (PruneBelow compaction); plain Add calls never
// change it, so consumers caching indices only re-sync after pruning.
func (t *Tree) Version() uint64 { return t.version }

// Has reports whether the tree contains root.
func (t *Tree) Has(root types.Root) bool {
	_, ok := t.index[root]
	return ok
}

// IndexOf returns the stable array index of root within the current
// Version's index space.
func (t *Tree) IndexOf(root types.Root) (int32, bool) {
	i, ok := t.index[root]
	return i, ok
}

// BlockAt returns the block stored at array index i. The index must be in
// [0, Len()).
func (t *Tree) BlockAt(i int32) Block { return t.nodes[i].block }

// ParentIndex returns the array index of i's parent, or NoIndex for the
// effective root. Parents always have smaller indices than their children.
func (t *Tree) ParentIndex(i int32) int32 { return t.nodes[i].parent }

// FirstChild returns the array index of i's first child in insertion order,
// or NoIndex for a leaf.
func (t *Tree) FirstChild(i int32) int32 { return t.nodes[i].firstChild }

// NextSibling returns the array index of the sibling inserted after i, or
// NoIndex for the last child.
func (t *Tree) NextSibling(i int32) int32 { return t.nodes[i].nextSibling }

// Block returns the block stored under root.
func (t *Tree) Block(root types.Root) (Block, error) {
	i, ok := t.index[root]
	if !ok {
		return Block{}, fmt.Errorf("%w: %s", ErrUnknownBlock, root)
	}
	return t.nodes[i].block, nil
}

// Add inserts b. The parent must already be present, the slot must be
// strictly greater than the parent's slot, and the root must be new. Below
// the size the tree last reached it allocates nothing: Compact keeps the
// node array's and the root index's storage.
//
//gasper:noalloc
func (t *Tree) Add(b Block) error {
	if _, ok := t.index[b.Root]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, b.Root) //gasper:alloc error exit: a rejected block
	}
	pi, ok := t.index[b.Parent]
	if !ok {
		return fmt.Errorf("%w: parent %s of %s", ErrUnknownParent, b.Parent, b.Root) //gasper:alloc error exit: a rejected block
	}
	if b.Slot <= t.nodes[pi].block.Slot {
		//gasper:alloc error exit: a rejected block
		return fmt.Errorf("%w: block %s at slot %d, parent at slot %d",
			ErrBadSlot, b.Root, b.Slot, t.nodes[pi].block.Slot)
	}
	i := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{
		block:       b,
		parent:      pi,
		firstChild:  NoIndex,
		lastChild:   NoIndex,
		nextSibling: NoIndex,
	})
	if t.nodes[pi].firstChild == NoIndex {
		t.nodes[pi].firstChild = i
	} else {
		t.nodes[t.nodes[pi].lastChild].nextSibling = i
	}
	t.nodes[pi].lastChild = i
	t.index[b.Root] = i
	return nil
}

// Children returns the direct children of root in insertion order. The
// returned slice is a copy.
func (t *Tree) Children(root types.Root) []types.Root {
	i, ok := t.index[root]
	if !ok {
		return nil
	}
	var out []types.Root
	for c := t.nodes[i].firstChild; c != NoIndex; c = t.nodes[c].nextSibling {
		out = append(out, t.nodes[c].block.Root)
	}
	return out
}

// IsAncestor reports whether a is an ancestor of (or equal to) d.
func (t *Tree) IsAncestor(a, d types.Root) bool {
	ai, ok := t.index[a]
	if !ok {
		return false
	}
	di, ok := t.index[d]
	if !ok {
		return false
	}
	// Parents precede children in the array, so the walk can stop as soon
	// as the descendant's index drops below the candidate ancestor's.
	for di > ai {
		di = t.nodes[di].parent
	}
	return di == ai
}

// AncestorAt walks from root toward genesis and returns the last block on
// that path whose slot is <= slot. This is the block a checkpoint for a
// given epoch resolves to on the branch ending at root.
//
// Stepping across a compacted segment (a skip link with folded blocks
// behind it) whose slot range straddles the query returns
// ErrCompactedRange: the true answer may have been folded, and a silently
// lower ancestor would corrupt checkpoint resolution. Queries at or above
// Compact's retention horizon never cross such a segment.
func (t *Tree) AncestorAt(root types.Root, slot types.Slot) (types.Root, error) {
	i, ok := t.index[root]
	if !ok {
		return types.Root{}, fmt.Errorf("%w: %s", ErrUnknownBlock, root)
	}
	for {
		n := &t.nodes[i]
		if n.block.Slot <= slot || n.parent == NoIndex {
			return n.block.Root, nil
		}
		if n.foldedBelow > 0 && t.nodes[n.parent].block.Slot < slot {
			// The folded blocks between parent and n occupied slots in
			// (parent.Slot, n.Slot); one of them could be the answer.
			return types.Root{}, fmt.Errorf("%w: slot %d between %s (slot %d) and its skip parent (%d folded blocks)",
				ErrCompactedRange, slot, n.block.Root, n.block.Slot, n.foldedBelow)
		}
		i = n.parent
	}
}

// CheckpointFor resolves the checkpoint of epoch e on the branch ending at
// head: the pair (block at or before the epoch's first slot, e).
func (t *Tree) CheckpointFor(head types.Root, e types.Epoch) (types.Checkpoint, error) {
	r, err := t.AncestorAt(head, e.StartSlot())
	if err != nil {
		return types.Checkpoint{}, err
	}
	return types.Checkpoint{Epoch: e, Root: r}, nil
}

// Chain returns the path from genesis to root, inclusive, in increasing
// slot order.
func (t *Tree) Chain(root types.Root) ([]Block, error) {
	i, ok := t.index[root]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownBlock, root)
	}
	var rev []Block
	for ; i != NoIndex; i = t.nodes[i].parent {
		rev = append(rev, t.nodes[i].block)
	}
	for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
		rev[a], rev[b] = rev[b], rev[a]
	}
	return rev, nil
}

// Leaves returns all blocks without children, sorted by (slot, root) for
// determinism.
func (t *Tree) Leaves() []Block {
	var out []Block
	for i := range t.nodes {
		if t.nodes[i].firstChild == NoIndex {
			out = append(out, t.nodes[i].block)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Slot != out[j].Slot {
			return out[i].Slot < out[j].Slot
		}
		return bytes.Compare(out[i].Root[:], out[j].Root[:]) < 0
	})
	return out
}

// CommonAncestor returns the highest block that is an ancestor of both a
// and b.
func (t *Tree) CommonAncestor(a, b types.Root) (types.Root, error) {
	ai, ok := t.index[a]
	if !ok {
		return types.Root{}, ErrUnknownBlock
	}
	bi, ok := t.index[b]
	if !ok {
		return types.Root{}, ErrUnknownBlock
	}
	// Parents precede children, so repeatedly lifting the deeper index
	// converges on the meet without any visited-set allocation.
	for ai != bi {
		if ai > bi {
			ai = t.nodes[ai].parent
		} else {
			bi = t.nodes[bi].parent
		}
	}
	return t.nodes[ai].block.Root, nil
}

// PruneBelow discards every block that is not a descendant of (or equal
// to) keep, which becomes the tree's effective root. Nodes prune at
// finalized checkpoints: blocks conflicting with finality can never return
// to the canonical chain, and long simulations need the memory back. The
// genesis pointer moves to keep, the node array is compacted in pre-order
// (keeping it topological), and Version is bumped to void cached indices.
// Returns the number of blocks removed.
func (t *Tree) PruneBelow(keep types.Root) (int, error) {
	ki, ok := t.index[keep]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownBlock, keep)
	}
	if ki == 0 {
		return 0, nil
	}
	// Collect the surviving subtree in pre-order: parents stay ahead of
	// their children and sibling order is preserved, so relinking the
	// compacted array by ascending index reproduces insertion order.
	order := make([]int32, 0, len(t.nodes))
	t.preorder(ki, &order)
	oldToNew := make(map[int32]int32, len(order))
	for newIdx, oldIdx := range order {
		oldToNew[oldIdx] = int32(newIdx)
	}
	fresh := make([]node, len(order))
	index := make(map[types.Root]int32, len(order))
	for newIdx, oldIdx := range order {
		b := t.nodes[oldIdx].block
		fresh[newIdx] = node{
			block:       b,
			parent:      NoIndex,
			firstChild:  NoIndex,
			lastChild:   NoIndex,
			nextSibling: NoIndex,
			foldedBelow: t.nodes[oldIdx].foldedBelow,
		}
		if oldIdx != ki {
			fresh[newIdx].parent = oldToNew[t.nodes[oldIdx].parent]
		}
		index[b.Root] = int32(newIdx)
	}
	// The new root keeps its slot but forgets its parent, so ancestry
	// walks terminate at it; any segment folded below it is gone too.
	fresh[0].block.Parent = keep
	fresh[0].foldedBelow = 0
	for i := int32(1); i < int32(len(fresh)); i++ {
		p := fresh[i].parent
		if fresh[p].firstChild == NoIndex {
			fresh[p].firstChild = i
		} else {
			fresh[fresh[p].lastChild].nextSibling = i
		}
		fresh[p].lastChild = i
	}
	removed := len(t.nodes) - len(fresh)
	t.nodes = fresh
	t.index = index
	t.version++
	return removed, nil
}

// preorder appends the subtree of root to out in pre-order (parent first,
// children in sibling order), with an explicit stack so a deep surviving
// chain costs no call-stack growth.
func (t *Tree) preorder(root int32, out *[]int32) {
	stack := []int32{root}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		*out = append(*out, i)
		// Push the children, then reverse the pushed run so they pop in
		// sibling order.
		n := len(stack)
		for c := t.nodes[i].firstChild; c != NoIndex; c = t.nodes[c].nextSibling {
			stack = append(stack, c)
		}
		for a, b := n, len(stack)-1; a < b; a, b = a+1, b-1 {
			stack[a], stack[b] = stack[b], stack[a]
		}
	}
}

// Compact folds the cold interior of the tree into summary segments,
// PruneBelow's sibling for runs where finality — and therefore pruning —
// never happens (an inactivity leak). A block survives compaction iff it
//
//   - sits at or above the retention horizon (Slot >= olderThan),
//   - is the effective root,
//   - is protected by the keep predicate (vote targets, checkpoint
//     anchors — whatever the caller still addresses by root), or
//   - is a branch point of the surviving set (the lowest common ancestor
//     of two survivors), so ancestry relations among survivors persist.
//
// Everything else — the unbranched non-finalized spine and dead side
// branches carrying no protected root — is folded away: each survivor's
// parent link jumps to its nearest surviving ancestor (an ancestor-skip
// link), its Block.Parent is rewritten to that ancestor's root so
// root-chain walks stay closed, and foldedBelow records the segment
// length. Version is bumped so incremental consumers rebuild. Returns the
// number of blocks folded (0 leaves the tree and Version untouched).
//
// IsAncestor and CommonAncestor remain exact over surviving blocks.
// AncestorAt queries below olderThan may answer ErrCompactedRange.
func (t *Tree) Compact(olderThan types.Slot, keep func(types.Root) bool) int {
	n := int32(len(t.nodes))
	if n <= 1 {
		return 0
	}
	mark := make([]bool, n)
	mark[0] = true
	retained := int32(1)
	for i := int32(1); i < n; i++ {
		b := &t.nodes[i].block
		if b.Slot >= olderThan || (keep != nil && keep(b.Root)) {
			mark[i] = true
			retained++
		}
	}
	// LCA closure, leaf-to-root (children have larger indices, so each
	// node's child counts are final when visited): a node with two or more
	// children whose subtrees carry survivors is a branch point of the
	// surviving set and must survive itself.
	childrenWith := make([]int8, n)
	for i := n - 1; i >= 1; i-- {
		if !mark[i] && childrenWith[i] >= 2 {
			mark[i] = true
			retained++
		}
		if mark[i] || childrenWith[i] > 0 {
			if p := t.nodes[i].parent; childrenWith[p] < 2 {
				childrenWith[p]++
			}
		}
	}
	if retained == n {
		return 0
	}
	// Nearest surviving ancestor and folded-gap length, root-to-leaf: a
	// dropped node accumulates its own segment history (foldedBelow) plus
	// itself into the gap its surviving descendants inherit.
	nrAnc := make([]int32, n)
	gap := make([]int32, n)
	nrAnc[0] = NoIndex
	for i := int32(1); i < n; i++ {
		p := t.nodes[i].parent
		if mark[p] {
			nrAnc[i] = p
			gap[i] = t.nodes[i].foldedBelow
		} else {
			nrAnc[i] = nrAnc[p]
			gap[i] = t.nodes[i].foldedBelow + 1 + gap[p]
		}
	}
	// Rebuild in place, in ascending index order: survivors keep their
	// relative order, so the array stays topological, and a survivor's new
	// index never exceeds its old one, so each write lands on a slot the
	// walk has already read. The array and the root index keep their
	// storage, so the Adds that refill the tree to the watermark grow
	// nothing.
	fresh := t.nodes[:0]
	clear(t.index)
	oldToNew := make([]int32, n)
	for i := int32(0); i < n; i++ {
		if !mark[i] {
			oldToNew[i] = NoIndex
			continue
		}
		nd := node{
			block:       t.nodes[i].block,
			parent:      NoIndex,
			firstChild:  NoIndex,
			lastChild:   NoIndex,
			nextSibling: NoIndex,
			foldedBelow: gap[i],
		}
		if i != 0 {
			np := oldToNew[nrAnc[i]]
			nd.parent = np
			nd.block.Parent = fresh[np].block.Root
		}
		oldToNew[i] = int32(len(fresh))
		t.index[nd.block.Root] = oldToNew[i]
		fresh = append(fresh, nd)
	}
	for i := int32(1); i < int32(len(fresh)); i++ {
		p := fresh[i].parent
		if fresh[p].firstChild == NoIndex {
			fresh[p].firstChild = i
		} else {
			fresh[fresh[p].lastChild].nextSibling = i
		}
		fresh[p].lastChild = i
	}
	removed := int(n) - len(fresh)
	t.nodes = fresh
	t.folded += removed
	t.version++
	return removed
}

// Stats reports the tree's retained-state sizes: the memory-growth half of
// the leak-depth story.
type Stats struct {
	// Nodes is the live block count (Len).
	Nodes int
	// Segments counts skip links currently summarizing a folded run.
	Segments int
	// Folded is the lifetime count of blocks removed by Compact.
	Folded int
	// Bytes approximates the retained heap footprint (node array plus
	// root index). The array counts at its capacity, and Compact keeps the
	// capacity, so a compacted tree reads higher than its Clone, which is
	// sized to the live blocks.
	Bytes int
}

// Stats computes the current Stats by one scan of the node array.
func (t *Tree) Stats() Stats {
	s := Stats{Nodes: len(t.nodes), Folded: t.folded}
	for i := range t.nodes {
		if t.nodes[i].foldedBelow > 0 {
			s.Segments++
		}
	}
	// Rough per-entry map cost: key, value, and bucket overhead.
	const mapEntryBytes = int(unsafe.Sizeof(types.Root{})) + 8 + 16
	s.Bytes = cap(t.nodes)*int(unsafe.Sizeof(node{})) + len(t.index)*mapEntryBytes
	return s
}

// Slot returns the slot of root, or an error if unknown.
func (t *Tree) Slot(root types.Root) (types.Slot, error) {
	b, err := t.Block(root)
	if err != nil {
		return 0, err
	}
	return b.Slot, nil
}
