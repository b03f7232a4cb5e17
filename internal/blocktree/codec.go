package blocktree

import (
	"math/bits"

	"repro/internal/codec"
)

// BlockBytes is the encoded size of one block.
const BlockBytes = 8 + 32 + 32 + 8

// Walk moves one block.
func (b *Block) Walk(c *codec.Coder) {
	c.U64((*uint64)(&b.Slot))
	c.Raw(b.Root[:])
	c.Raw(b.Parent[:])
	c.U64((*uint64)(&b.Proposer))
}

// Walk moves the tree for the durable snapshot codec: version, lifetime
// folded count, then per node its block (Parent read through the parent
// link), parent link, and folded-segment length. Child/sibling links and
// the root index are not written — decoding rebuilds both from the parent
// links, exactly as PruneBelow and Compact relink their rebuilt nodes (the
// nodes are topological and sibling order equals index order, so the
// relink is lossless).
//
// Decoding empties the tree as Reset does, keeping its pages, root index
// and scratch, and refills it: a tree that held as many nodes allocates
// nothing. Structural impossibilities (no nodes, a parent at or after its
// child, a stored parent root that is not the parent link's root, a
// duplicate root) are corrupt. Pages past the ones held are allocated as
// nodes arrive, so a corrupt count costs no more than the bytes behind it.
func (t *Tree) Walk(c *codec.Coder) {
	if !c.Encoding() {
		*t = Tree{pages: t.pages, index: t.index, scratch: t.scratch}
	}
	c.U64(&t.version)
	c.Int(&t.folded)
	n := int(t.n)
	if c.Count(&n, BlockBytes+4+4); !c.Encoding() && n == 0 {
		c.Corrupt("blocktree: empty node array")
	}
	for i := int32(0); i < int32(n) && c.Err() == nil; i++ {
		if !c.Encoding() && int(i>>pageBits) == len(t.pages) {
			t.pages = append(t.pages, new([pageSize]node))
		}
		nd := t.at(i)
		parent := t.base
		if c.Encoding() && nd.parent != NoIndex {
			parent = t.at(nd.parent).root
		}
		c.U64((*uint64)(&nd.slot))
		c.Raw(nd.root[:])
		c.Raw(parent[:])
		c.U64((*uint64)(&nd.proposer))
		c.I32(&nd.parent)
		c.I32(&nd.foldedBelow)
		switch {
		case c.Encoding() || c.Err() != nil:
		case i == 0 && nd.parent != NoIndex:
			c.Corrupt("blocktree: root node has parent %d", nd.parent)
		case i == 0:
			t.base = parent
		case nd.parent < 0 || nd.parent >= i:
			c.Corrupt("blocktree: node %d has non-topological parent %d", i, nd.parent)
		case t.at(nd.parent).root != parent:
			c.Corrupt("blocktree: node %d stores parent root %s, its parent link names %s", i, parent, t.at(nd.parent).root)
		}
	}
	if c.Encoding() || c.Err() != nil {
		return
	}
	t.n = int32(n)
	if size := max(2*pageSize, 1<<bits.Len(uint(2*n-1))); len(t.index) < size {
		t.index = make([]int32, size)
	}
	if i := t.reindex(); i != NoIndex {
		c.Corrupt("blocktree: duplicate root at node %d", i)
		return
	}
	t.relink()
}
