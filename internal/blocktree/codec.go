package blocktree

import (
	"math/bits"

	"repro/internal/codec"
	"repro/internal/types"
)

// EncodeTo serializes the tree for the durable snapshot codec: version,
// lifetime folded count, then per node its block (Parent read through the
// parent link), parent link, and folded-segment length. Child/sibling links
// and the root index are not written — DecodeTree rebuilds both from the
// parent links, exactly as PruneBelow and Compact relink their rebuilt
// nodes (the nodes are topological and sibling order equals index order,
// so the relink is lossless).
func (t *Tree) EncodeTo(w *codec.Writer) {
	w.U64(t.version)
	w.Int(t.folded)
	w.Len(int(t.n))
	for i := int32(0); i < t.n; i++ {
		nd := &t.pages[i>>pageBits][i&pageMask]
		parent := t.base
		if nd.parent != NoIndex {
			parent = t.at(nd.parent).root
		}
		w.U64(uint64(nd.slot))
		w.Raw(nd.root[:])
		w.Raw(parent[:])
		w.U64(uint64(nd.proposer))
		w.I32(nd.parent)
		w.I32(nd.foldedBelow)
	}
}

// DecodeTree reconstructs a tree serialized by EncodeTo. Structural
// impossibilities (no nodes, a parent at or after its child, a stored
// parent root that is not the parent link's root, a duplicate root)
// surface through the reader's sticky error. Pages are allocated as nodes
// arrive, so a corrupt length costs no more than the bytes behind it.
func DecodeTree(r *codec.Reader) *Tree {
	t := &Tree{version: r.U64(), folded: r.Int()}
	n := r.Len()
	if r.Err() != nil {
		return nil
	}
	if n == 0 {
		r.Corrupt("blocktree: empty node array")
		return nil
	}
	for i := int32(0); i < int32(n); i++ {
		if i&pageMask == 0 {
			t.pages = append(t.pages, new([pageSize]node))
		}
		nd := t.at(i)
		var parent types.Root
		nd.slot = types.Slot(r.U64())
		r.Raw(nd.root[:])
		r.Raw(parent[:])
		nd.proposer = types.ValidatorIndex(r.U64())
		nd.parent = r.I32()
		nd.foldedBelow = r.I32()
		switch {
		case r.Err() != nil:
			return nil
		case i == 0 && nd.parent != NoIndex:
			r.Corrupt("blocktree: root node has parent %d", nd.parent)
			return nil
		case i == 0:
			t.base = parent
		case nd.parent < 0 || nd.parent >= i:
			r.Corrupt("blocktree: node %d has non-topological parent %d", i, nd.parent)
			return nil
		case t.at(nd.parent).root != parent:
			r.Corrupt("blocktree: node %d stores parent root %s, its parent link names %s", i, parent, t.at(nd.parent).root)
			return nil
		}
	}
	t.n = int32(n)
	t.index = make([]int32, max(2*pageSize, 1<<bits.Len(uint(2*n-1))))
	if i := t.reindex(); i != NoIndex {
		r.Corrupt("blocktree: duplicate root at node %d", i)
		return nil
	}
	t.relink()
	return t
}
