package forkchoice

import (
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/types"
)

// engineTagProtoArray is the durable snapshot codec's one engine type tag:
// the map-based reference in internal/refmodel is a reference for heads,
// not for bytes.
const engineTagProtoArray byte = 1

// WalkEngine moves a fork-choice engine behind a type tag. Only the
// proto-array has a durable form; encoding any other engine fails the
// coder, so no frame is ever written that only a read would reject.
// Decoding reuses the proto-array *e holds, reset first, and otherwise
// fills a new one. A decode that fails into a new one leaves *e nil, not an
// Engine holding a nil *ProtoArray.
func WalkEngine(c *codec.Coder, e *Engine) {
	p, ok := (*e).(*ProtoArray)
	if c.Encoding() && !ok {
		c.Fail(fmt.Errorf("forkchoice: engine %T has no codec", *e))
		return
	}
	tag := engineTagProtoArray
	if c.Byte(&tag); tag != engineTagProtoArray {
		c.Corrupt("forkchoice: unknown engine tag %d", tag)
		return
	}
	if !c.Encoding() {
		if !ok {
			p = new(ProtoArray)
		}
		p.Reset()
	}
	if p.walk(c); !c.Encoding() && c.Err() == nil {
		*e = p
	}
}

// walk moves only the proto-array's durable state: the per-validator vote
// and stake columns. Every per-node column (weights, best pointers,
// canonical cache), the worklists, and the applied-vote state are caches
// over the block tree that the decoded engine's first sync rebuilds — the
// decoded array carries a nil tree identity, so the first head query
// triggers a full rebuild from the vote columns, exactly as a cloned
// engine does against a cloned tree (the reset WalkEngine decodes into has
// forgotten the tree it was synced to, even when the decoded tree reuses
// that tree's storage). A row carries its vote's root, not its id: encode
// reads the root from the table and decode interns it, so the frame does
// not depend on how the table is numbered. A decoded vote count that
// disagrees with the votes present is corrupt, and so is a row that could
// not re-encode to its own bytes: a root on a row without a vote, or a
// slot past 32 bits.
func (p *ProtoArray) walk(c *codec.Coder) {
	n := len(p.voteID)
	c.Count(&n, 32+8+1+8) // vote root, vote slot, has-vote, stake
	if !c.Encoding() {
		p.ensureValidators(n)
	}
	voted := 0
	for i := 0; i < n && c.Err() == nil; i++ {
		var root types.Root
		if p.voteID[i] != 0 {
			root = p.roots[p.voteID[i]]
		}
		slot, has := uint64(p.voteSlot[i]), p.voteID[i] != 0
		c.Raw(root[:])
		c.U64(&slot)
		c.Bool(&has)
		c.U64((*uint64)(&p.stakes[i]))
		if has {
			voted++
		}
		if c.Encoding() {
			continue
		}
		switch {
		case slot > math.MaxUint32:
			c.Corrupt("forkchoice: validator %d votes at slot %d, past 32 bits", i, slot)
		case has:
			p.voteID[i] = p.internRow(root, n-i)
		case root != types.Root{}:
			c.Corrupt("forkchoice: validator %d has no vote but a vote root", i)
		}
		p.voteSlot[i] = uint32(slot)
	}
	if c.Int(&p.voted); !c.Encoding() && c.Err() == nil && p.voted != voted {
		c.Corrupt("forkchoice: %d votes recorded, %d present", p.voted, voted)
	}
}

// internRow is intern for a decoded row with rows rows left in the frame,
// this one included. Every decoded id is still voted for, so none is
// renumbered away; a full table instead grows once, by an id for every row
// left, so a frame of distinct roots costs one table as long as its rows,
// not a run of regrowths and renumbers.
func (p *ProtoArray) internRow(root types.Root, rows int) uint32 {
	if id, ok := p.find(root); ok {
		return id
	}
	if len(p.roots) > 0 && len(p.roots) == cap(p.roots) {
		p.roots = append(make([]types.Root, 0, len(p.roots)+rows), p.roots...)
	}
	return p.add(root)
}
