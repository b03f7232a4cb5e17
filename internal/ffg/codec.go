package ffg

import (
	"repro/internal/codec"
	"repro/internal/types"
)

func walkCheckpoint(cp *types.Checkpoint, c *codec.Coder) {
	c.U64((*uint64)(&cp.Epoch))
	c.Raw(cp.Root[:])
}

// Walk moves the full FFG state for the durable snapshot codec: the
// justified set in justification order, the latest-justified and finalized
// checkpoints, the last finalization epoch, and the genesis checkpoint the
// engine was seeded with.
func (e *Engine) Walk(c *codec.Coder) {
	codec.Slice(c, &e.justified, 8+32, walkCheckpoint)
	walkCheckpoint(&e.latestJustified, c)
	walkCheckpoint(&e.finalized, c)
	c.U64((*uint64)(&e.lastFinalizedAt))
	walkCheckpoint(&e.genesis, c)
}
