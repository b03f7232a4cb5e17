package forkchoice

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/types"
)

// engineTagProtoArray is the durable snapshot codec's one engine type tag:
// the map-based reference in internal/refmodel is a reference for heads,
// not for bytes.
const engineTagProtoArray byte = 1

// EncodeEngine serializes a fork-choice engine behind a type tag. Only the
// proto-array has a durable form; any other engine fails the write through
// the writer's sticky error, so no frame is ever written that only a read
// would reject.
func EncodeEngine(w *codec.Writer, e Engine) {
	switch eng := e.(type) {
	case *ProtoArray:
		w.Byte(engineTagProtoArray)
		eng.encodeTo(w)
	default:
		w.Fail(fmt.Errorf("forkchoice: engine %T has no codec", e))
	}
}

// DecodeEngine reconstructs an engine serialized by EncodeEngine. On
// failure it returns a nil Engine, not one holding a nil *ProtoArray.
func DecodeEngine(r *codec.Reader) Engine {
	switch tag := r.Byte(); tag {
	case engineTagProtoArray:
		if p := decodeProtoArray(r); p != nil {
			return p
		}
		return nil
	default:
		r.Corrupt("forkchoice: unknown engine tag %d", tag)
		return nil
	}
}

// encodeTo writes only the proto-array's durable state: the per-validator
// vote and stake columns. Every per-node column (weights, best pointers,
// canonical cache), the worklists, and the applied-vote state are caches
// over the block tree that the decoded engine's first sync rebuilds — the
// decoded array carries a nil tree identity, so the first head query
// triggers a full rebuild from the vote columns, exactly as a cloned
// engine does against a cloned tree.
func (p *ProtoArray) encodeTo(w *codec.Writer) {
	w.Len(len(p.voteRoot))
	for i := range p.voteRoot {
		w.Raw(p.voteRoot[i][:])
		w.U64(uint64(p.voteSlot[i]))
		w.Bool(p.hasVote[i])
		w.U64(uint64(p.stakes[i]))
	}
	w.Int(p.voted)
}

func decodeProtoArray(r *codec.Reader) *ProtoArray {
	p := NewProtoArray()
	n := r.Count(32 + 8 + 1 + 8) // vote root, vote slot, has-vote, stake
	if r.Err() != nil {
		return nil
	}
	p.ensureValidators(n)
	voted := 0
	for i := 0; i < n; i++ {
		r.Raw(p.voteRoot[i][:])
		p.voteSlot[i] = types.Slot(r.U64())
		p.hasVote[i] = r.Bool()
		p.stakes[i] = types.Gwei(r.U64())
		if p.hasVote[i] {
			voted++
		}
	}
	p.voted = r.Int()
	if r.Err() != nil {
		return nil
	}
	if p.voted != voted {
		r.Corrupt("forkchoice: %d votes recorded, %d present", p.voted, voted)
		return nil
	}
	return p
}
