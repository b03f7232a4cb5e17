package forkchoice

import (
	"fmt"

	"repro/internal/codec"
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
// that tree's storage). A decoded vote count that disagrees with the votes
// present is corrupt.
func (p *ProtoArray) walk(c *codec.Coder) {
	n := len(p.voteRoot)
	c.Count(&n, 32+8+1+8) // vote root, vote slot, has-vote, stake
	if !c.Encoding() {
		p.ensureValidators(n)
	}
	voted := 0
	for i := 0; i < n; i++ {
		c.Raw(p.voteRoot[i][:])
		c.U64((*uint64)(&p.voteSlot[i]))
		c.Bool(&p.hasVote[i])
		c.U64((*uint64)(&p.stakes[i]))
		if p.hasVote[i] {
			voted++
		}
	}
	if c.Int(&p.voted); !c.Encoding() && p.voted != voted {
		c.Corrupt("forkchoice: %d votes recorded, %d present", p.voted, voted)
	}
}
