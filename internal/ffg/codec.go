package ffg

import (
	"repro/internal/codec"
	"repro/internal/types"
)

// Walk moves the full FFG state for the durable snapshot codec: the
// justified set in justification order, the latest-justified and finalized
// checkpoints, the last finalization epoch, and the genesis checkpoint the
// engine was seeded with.
func (e *Engine) Walk(c *codec.Coder) {
	codec.Slice(c, &e.justified, 8+32, (*types.Checkpoint).Walk)
	e.latestJustified.Walk(c)
	e.finalized.Walk(c)
	c.U64((*uint64)(&e.lastFinalizedAt))
	e.genesis.Walk(c)
}
