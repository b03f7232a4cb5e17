package ffg

import (
	"repro/internal/codec"
	"repro/internal/types"
)

func encodeCheckpoint(w *codec.Writer, c types.Checkpoint) {
	w.U64(uint64(c.Epoch))
	w.Raw(c.Root[:])
}

func decodeCheckpoint(r *codec.Reader) types.Checkpoint {
	var c types.Checkpoint
	c.Epoch = types.Epoch(r.U64())
	r.Raw(c.Root[:])
	return c
}

// EncodeTo serializes the full FFG state for the durable snapshot codec:
// the justified set in justification order, the latest-justified and
// finalized checkpoints, the last finalization epoch, and the genesis
// checkpoint the engine was seeded with.
func (e *Engine) EncodeTo(w *codec.Writer) {
	w.Len(len(e.justified))
	for _, c := range e.justified {
		encodeCheckpoint(w, c)
	}
	encodeCheckpoint(w, e.latestJustified)
	encodeCheckpoint(w, e.finalized)
	w.U64(uint64(e.lastFinalizedAt))
	encodeCheckpoint(w, e.genesis)
}

// DecodeEngine reconstructs an engine serialized by EncodeTo.
func DecodeEngine(r *codec.Reader) *Engine {
	n := r.Len()
	if r.Err() != nil {
		return nil
	}
	e := &Engine{justified: make([]types.Checkpoint, 0, min(n, 64))}
	for i := 0; i < n && r.Err() == nil; i++ {
		e.justified = append(e.justified, decodeCheckpoint(r))
	}
	e.latestJustified = decodeCheckpoint(r)
	e.finalized = decodeCheckpoint(r)
	e.lastFinalizedAt = types.Epoch(r.U64())
	e.genesis = decodeCheckpoint(r)
	if r.Err() != nil {
		return nil
	}
	return e
}
