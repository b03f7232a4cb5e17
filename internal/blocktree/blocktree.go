// Package blocktree stores the tree-like block structure every validator
// maintains locally (paper Section 2: "Validators keep a local data
// structure in form of a tree containing all the blocks perceived").
//
// It offers ancestry queries, checkpoint-block resolution (the block that a
// checkpoint (b, e) refers to is the last block at or before the first slot
// of epoch e on the branch), and chain extraction — the primitives that the
// fork-choice rule and the FFG finality engine are built on.
//
// Storage is flat: blocks live in insertion-ordered nodes, held in
// fixed-size pages so the tree grows without copying, with
// parent/first-child/next-sibling index links, plus an open-addressed
// root→index table. A node does not store its parent's root: Block reads it
// through the parent link. The node order is topological (a parent always
// precedes its children), and every index stays stable until PruneBelow or
// Compact rebuilds the nodes — each rebuild bumps Version, which incremental
// consumers (the proto-array fork-choice engine in internal/forkchoice)
// watch to know when their cached indices are void. Ancestry walks are
// integer chases with no root lookups.
package blocktree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
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

// Nodes live in pages of pageSize; the root index never has fewer than
// 2*pageSize entries, so a one-page tree never regrows it.
const (
	pageBits = 7
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// Block is a vertex of the tree. Payload contents are irrelevant to the
// consensus analysis; identity, position, and parentage are everything.
type Block struct {
	Slot     types.Slot
	Root     types.Root
	Parent   types.Root
	Proposer types.ValidatorIndex
}

// node is one block plus its structural links. Its parent's root is not
// copied in: it is the root of the node the parent link names.
type node struct {
	slot        types.Slot
	root        types.Root
	proposer    types.ValidatorIndex
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
// value is not usable until Reset; construct with New.
type Tree struct {
	// pages hold the nodes in index order; pages past the live ones are
	// storage a rebuild kept for the Adds that refill the tree.
	pages []*[pageSize]node
	n     int32 // live nodes
	// index is an open-addressed, linearly probed table of node index + 1
	// (0 = empty) whose length is a power of two at least twice n.
	index []int32 //gasper:nocodec root index; a decoding walk rebuilds it from the nodes
	// base is the root node's Parent: zero at genesis, the kept root itself
	// after PruneBelow.
	base    types.Root
	version uint64
	// folded is the lifetime count of blocks removed by Compact.
	folded int
	//gasper:nocodec rebuild scratch; holds nothing between calls
	//gasper:shallow rebuild scratch; a clone grows its own on its first rebuild
	scratch rebuildScratch
}

// rebuildScratch holds the columns Compact and PruneBelow rebuild the nodes
// through. A column grows to twice what the call needs, so a rebuild
// allocates only once the tree has outgrown its columns.
type rebuildScratch struct {
	mark   []bool
	counts []int8
	cols   [3][]int32
	kept   []node
}

// column returns *col resized to n entries, reusing its storage when that
// holds n, and otherwise growing it to room for 2n.
//
//gasper:noalloc
func column[T any](col *[]T, n int) []T {
	if cap(*col) < n {
		*col = make([]T, n, 2*n) //gasper:alloc one-time growth: a column doubles past the most nodes a rebuild has seen
	}
	*col = (*col)[:n]
	return *col
}

// Reset makes the tree hold only the genesis block at slot 0, keeping its
// pages and root index for the Adds that refill it; new(Tree).Reset(genesis)
// builds a tree. The version returns to zero with
// everything else, so a fork-choice engine caching this tree's indices must
// be reset with it.
func (t *Tree) Reset(genesis types.Root) {
	if len(t.pages) == 0 {
		t.pages, t.index = []*[pageSize]node{new([pageSize]node)}, make([]int32, 2*pageSize)
	}
	*t = Tree{pages: t.pages, n: 1, index: t.index, scratch: t.scratch}
	*t.at(0) = node{root: genesis, parent: NoIndex, firstChild: NoIndex, lastChild: NoIndex, nextSibling: NoIndex}
	t.reindex()
}

// Clone deep-copies the tree. The clone starts a fresh identity: consumers
// caching indices against the original (the proto-array fork-choice
// engine) detect the new tree pointer and rebuild. The clone holds the live
// pages only: the pages a rebuild left spare stay with the original.
func (t *Tree) Clone() *Tree {
	out := &Tree{
		pages:   make([]*[pageSize]node, (t.n+pageMask)>>pageBits),
		n:       t.n,
		index:   make([]int32, len(t.index)),
		base:    t.base,
		version: t.version,
		folded:  t.folded,
	}
	for i := range out.pages {
		pg := *t.pages[i]
		out.pages[i] = &pg
	}
	copy(out.index, t.index)
	return out
}

// at returns node i's storage.
func (t *Tree) at(i int32) *node { return &t.pages[i>>pageBits][i&pageMask] }

// probe walks r's run of the index: it returns the entry holding r and r's
// node, or the empty entry that ends the run and NoIndex. The hash mixes
// all four words of r and the index takes its top bits, which every input
// bit reaches (roots minted by RootFromUint64 differ only in their first
// word); candidates are compared a word at a time, first word first.
func (t *Tree) probe(r *types.Root) (int, int32) {
	le := binary.LittleEndian
	w0, w1, w2, w3 := le.Uint64(r[0:]), le.Uint64(r[8:]), le.Uint64(r[16:]), le.Uint64(r[24:])
	h := w0*0x9e3779b97f4a7c15 ^ w1*0xc2b2ae3d27d4eb4f ^ w2*0x165667b19e3779f9 ^ w3*0xff51afd7ed558ccd
	mask := len(t.index) - 1
	for s := int(h >> bits.LeadingZeros64(uint64(mask))); ; s = (s + 1) & mask {
		v := t.index[s] - 1
		if v == NoIndex {
			return s, NoIndex
		}
		if q := &t.at(v).root; le.Uint64(q[0:]) == w0 && le.Uint64(q[8:]) == w1 &&
			le.Uint64(q[16:]) == w2 && le.Uint64(q[24:]) == w3 {
			return s, v
		}
	}
}

// find returns root's node index, or NoIndex.
func (t *Tree) find(root types.Root) int32 {
	_, i := t.probe(&root)
	return i
}

// reindex clears the root index and refills it from the live nodes. It
// returns the first node whose root an earlier node holds, or NoIndex; only
// a decoded frame can have one.
func (t *Tree) reindex() int32 {
	clear(t.index)
	for i := int32(0); i < t.n; i++ {
		s, dup := t.probe(&t.at(i).root)
		if dup != NoIndex {
			return i
		}
		t.index[s] = i + 1
	}
	return NoIndex
}

// relink rebuilds the first-child, last-child and next-sibling links from
// the parent links. The nodes are topological and siblings sit in index
// order, so this reproduces insertion order.
func (t *Tree) relink() {
	for i := int32(0); i < t.n; i++ {
		nd := t.at(i)
		nd.firstChild, nd.lastChild, nd.nextSibling = NoIndex, NoIndex, NoIndex
	}
	for i := int32(1); i < t.n; i++ {
		t.link(i)
	}
}

// link appends node i to its parent's child list.
func (t *Tree) link(i int32) {
	p := t.at(t.at(i).parent)
	if p.firstChild == NoIndex {
		p.firstChild = i
	} else {
		t.at(p.lastChild).nextSibling = i
	}
	p.lastChild = i
}

// Genesis returns the root of the tree's effective root block (the original
// genesis, or the finalized block PruneBelow promoted).
func (t *Tree) Genesis() types.Root { return t.at(0).root }

// Len returns the number of blocks in the tree, genesis included.
func (t *Tree) Len() int { return int(t.n) }

// Version identifies the current index space. It is bumped whenever node
// indices are invalidated (PruneBelow compaction); plain Add calls never
// change it, so consumers caching indices only re-sync after pruning.
func (t *Tree) Version() uint64 { return t.version }

// Has reports whether the tree contains root.
func (t *Tree) Has(root types.Root) bool { return t.find(root) != NoIndex }

// IndexOf returns the stable array index of root within the current
// Version's index space.
func (t *Tree) IndexOf(root types.Root) (int32, bool) {
	i := t.find(root)
	return i, i != NoIndex
}

// BlockAt returns the block stored at array index i, its Parent read
// through the parent link. The index must be in [0, Len()).
func (t *Tree) BlockAt(i int32) Block {
	nd := t.at(i)
	b := Block{Slot: nd.slot, Root: nd.root, Parent: t.base, Proposer: nd.proposer}
	if nd.parent != NoIndex {
		b.Parent = t.at(nd.parent).root
	}
	return b
}

// ParentIndex returns the array index of i's parent, or NoIndex for the
// effective root. Parents always have smaller indices than their children.
func (t *Tree) ParentIndex(i int32) int32 { return t.at(i).parent }

// FirstChild returns the array index of i's first child in insertion order,
// or NoIndex for a leaf.
func (t *Tree) FirstChild(i int32) int32 { return t.at(i).firstChild }

// NextSibling returns the array index of the sibling inserted after i, or
// NoIndex for the last child.
func (t *Tree) NextSibling(i int32) int32 { return t.at(i).nextSibling }

// Block returns the block stored under root.
func (t *Tree) Block(root types.Root) (Block, error) {
	i := t.find(root)
	if i == NoIndex {
		return Block{}, fmt.Errorf("%w: %s", ErrUnknownBlock, root)
	}
	return t.BlockAt(i), nil
}

// Add inserts b. The parent must already be present, the slot must be
// strictly greater than the parent's slot, and the root must be new. It
// never copies a node, and below the size the tree last reached it
// allocates nothing: PruneBelow and Compact keep the pages and the root
// index.
//
//gasper:noalloc
func (t *Tree) Add(b Block) error {
	s, dup := t.probe(&b.Root)
	if dup != NoIndex {
		return fmt.Errorf("%w: %s", ErrDuplicate, b.Root) //gasper:alloc error exit: a rejected block
	}
	pi := t.find(b.Parent)
	if pi == NoIndex {
		return fmt.Errorf("%w: parent %s of %s", ErrUnknownParent, b.Parent, b.Root) //gasper:alloc error exit: a rejected block
	}
	if ps := t.at(pi).slot; b.Slot <= ps {
		//gasper:alloc error exit: a rejected block
		return fmt.Errorf("%w: block %s at slot %d, parent at slot %d", ErrBadSlot, b.Root, b.Slot, ps)
	}
	i := t.n
	if int(i>>pageBits) == len(t.pages) {
		t.pages = append(t.pages, new([pageSize]node)) //gasper:alloc a page per pageSize blocks past the most the tree has held
	}
	*t.at(i) = node{slot: b.Slot, root: b.Root, proposer: b.Proposer, parent: pi,
		firstChild: NoIndex, lastChild: NoIndex, nextSibling: NoIndex}
	t.n++
	t.link(i)
	if 2*int(t.n) <= len(t.index) {
		t.index[s] = i + 1
		return nil
	}
	t.index = make([]int32, 2*len(t.index)) //gasper:alloc the index doubles as the tree passes the most it has held
	t.reindex()
	return nil
}

// Children returns the direct children of root in insertion order. The
// returned slice is a copy.
func (t *Tree) Children(root types.Root) []types.Root {
	i := t.find(root)
	if i == NoIndex {
		return nil
	}
	var out []types.Root
	for c := t.at(i).firstChild; c != NoIndex; c = t.at(c).nextSibling {
		out = append(out, t.at(c).root)
	}
	return out
}

// IsAncestor reports whether a is an ancestor of (or equal to) d.
func (t *Tree) IsAncestor(a, d types.Root) bool {
	ai, di := t.find(a), t.find(d)
	if ai == NoIndex || di == NoIndex {
		return false
	}
	// Parents precede children in the array, so the walk can stop as soon
	// as the descendant's index drops below the candidate ancestor's.
	for di > ai {
		di = t.at(di).parent
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
	i := t.find(root)
	if i == NoIndex {
		return types.Root{}, fmt.Errorf("%w: %s", ErrUnknownBlock, root)
	}
	for {
		n := t.at(i)
		if n.slot <= slot || n.parent == NoIndex {
			return n.root, nil
		}
		if n.foldedBelow > 0 && t.at(n.parent).slot < slot {
			// The folded blocks between parent and n occupied slots in
			// (parent.Slot, n.Slot); one of them could be the answer.
			return types.Root{}, fmt.Errorf("%w: slot %d between %s (slot %d) and its skip parent (%d folded blocks)",
				ErrCompactedRange, slot, n.root, n.slot, n.foldedBelow)
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

// Leaves returns all blocks without children, sorted by (slot, root) for
// determinism.
func (t *Tree) Leaves() []Block {
	var out []Block
	for i := int32(0); i < t.n; i++ {
		if t.at(i).firstChild == NoIndex {
			out = append(out, t.BlockAt(i))
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

// PruneBelow discards every block that is not a descendant of (or equal
// to) keep, which becomes the tree's effective root. Nodes prune at
// finalized checkpoints: blocks conflicting with finality can never return
// to the canonical chain, and long simulations need the memory back. The
// genesis pointer moves to keep, the nodes are rewritten in pre-order
// (keeping them topological) into the pages the tree already has, and
// Version is bumped to void cached indices. Returns the number of blocks
// removed.
//
//gasper:noalloc
func (t *Tree) PruneBelow(keep types.Root) (int, error) {
	ki := t.find(keep)
	if ki == NoIndex {
		return 0, fmt.Errorf("%w: %s", ErrUnknownBlock, keep) //gasper:alloc error exit: an unknown root
	}
	if ki == 0 {
		return 0, nil
	}
	// Collect the surviving subtree in pre-order: parents stay ahead of
	// their children and sibling order is preserved, so relinking by
	// ascending index reproduces insertion order. Pre-order can move a
	// node past its old index, so the survivors are gathered before they
	// are written back.
	sc := &t.scratch
	order := t.preorder(ki, column(&sc.cols[0], int(t.n))[:0], column(&sc.cols[1], int(t.n))[:0])
	remap := column(&sc.cols[2], int(t.n))
	kept := column(&sc.kept, len(order))
	for newIdx, oldIdx := range order {
		remap[oldIdx] = int32(newIdx)
		kept[newIdx] = *t.at(oldIdx)
		if newIdx > 0 {
			kept[newIdx].parent = remap[kept[newIdx].parent]
		}
	}
	// The new root keeps its slot but forgets its parent, so ancestry
	// walks terminate at it; any segment folded below it is gone too.
	kept[0].parent, kept[0].foldedBelow = NoIndex, 0
	removed := int(t.n) - len(kept)
	t.n = int32(len(kept))
	for i := range kept {
		*t.at(int32(i)) = kept[i]
	}
	t.base = keep
	t.relink()
	t.reindex()
	t.version++
	return removed, nil
}

// preorder appends the subtree of root to out in pre-order (parent first,
// children in sibling order), with an explicit stack so a deep surviving
// chain costs no call-stack growth. Both out and stack need room for every
// node.
func (t *Tree) preorder(root int32, out, stack []int32) []int32 {
	stack = append(stack, root)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, i)
		// Push the children, then reverse the pushed run so they pop in
		// sibling order.
		n := len(stack)
		for c := t.at(i).firstChild; c != NoIndex; c = t.at(c).nextSibling {
			stack = append(stack, c)
		}
		for a, b := n, len(stack)-1; a < b; a, b = a+1, b-1 {
			stack[a], stack[b] = stack[b], stack[a]
		}
	}
	return out
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
// link), so its Block.Parent reads that ancestor's root and root-chain
// walks stay closed, and foldedBelow records the segment length. Version
// is bumped so incremental consumers rebuild. Returns the number of blocks
// folded (0 leaves the tree and Version untouched).
//
// IsAncestor, and so the common ancestor of two survivors, remain exact
// over surviving blocks.
// AncestorAt queries below olderThan may answer ErrCompactedRange.
//
//gasper:noalloc
func (t *Tree) Compact(olderThan types.Slot, keep func(types.Root) bool) int {
	n := t.n
	if n <= 1 {
		return 0
	}
	sc := &t.scratch
	mark := column(&sc.mark, int(n))
	clear(mark)
	mark[0] = true
	retained := int32(1)
	for i := int32(1); i < n; i++ {
		nd := t.at(i)
		if nd.slot >= olderThan || (keep != nil && keep(nd.root)) {
			mark[i] = true
			retained++
		}
	}
	// LCA closure, leaf-to-root (children have larger indices, so each
	// node's child counts are final when visited): a node with two or more
	// children whose subtrees carry survivors is a branch point of the
	// surviving set and must survive itself.
	childrenWith := column(&sc.counts, int(n))
	clear(childrenWith)
	for i := n - 1; i >= 1; i-- {
		if !mark[i] && childrenWith[i] >= 2 {
			mark[i] = true
			retained++
		}
		if mark[i] || childrenWith[i] > 0 {
			if p := t.at(i).parent; childrenWith[p] < 2 {
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
	nrAnc := column(&sc.cols[0], int(n))
	gap := column(&sc.cols[1], int(n))
	nrAnc[0], gap[0] = NoIndex, 0
	for i := int32(1); i < n; i++ {
		nd := t.at(i)
		if mark[nd.parent] {
			nrAnc[i] = nd.parent
			gap[i] = nd.foldedBelow
		} else {
			nrAnc[i] = nrAnc[nd.parent]
			gap[i] = nd.foldedBelow + 1 + gap[nd.parent]
		}
	}
	// Rebuild in place, in ascending index order: survivors keep their
	// relative order, so the nodes stay topological, and a survivor's new
	// index never exceeds its old one, so each write lands on a node the
	// walk has already read. The pages and the root index keep their
	// storage, so the Adds that refill the tree to the watermark grow
	// nothing.
	oldToNew := column(&sc.cols[2], int(n))
	w := int32(0)
	for i := int32(0); i < n; i++ {
		if !mark[i] {
			oldToNew[i] = NoIndex
			continue
		}
		nd := *t.at(i)
		nd.foldedBelow = gap[i]
		if i != 0 {
			nd.parent = oldToNew[nrAnc[i]]
		}
		oldToNew[i] = w
		*t.at(w) = nd
		w++
	}
	t.n = w
	t.relink()
	t.reindex()
	t.folded += int(n - w)
	t.version++
	return int(n - w)
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
	// Bytes is the retained heap footprint: every page and the root index.
	// Compact and PruneBelow keep both, so a rebuilt tree reads higher than
	// its Clone, which holds the live pages alone.
	Bytes int
}

// Stats computes the current Stats by one scan of the nodes.
func (t *Tree) Stats() Stats {
	s := Stats{Nodes: int(t.n), Folded: t.folded}
	for i := int32(0); i < t.n; i++ {
		if t.at(i).foldedBelow > 0 {
			s.Segments++
		}
	}
	s.Bytes = len(t.pages)*int(unsafe.Sizeof([pageSize]node{})) + len(t.index)*int(unsafe.Sizeof(int32(0)))
	return s
}

// Slot returns the slot of root, or an error if unknown.
func (t *Tree) Slot(root types.Root) (types.Slot, error) {
	i := t.find(root)
	if i == NoIndex {
		return 0, fmt.Errorf("%w: %s", ErrUnknownBlock, root)
	}
	return t.at(i).slot, nil
}
