// Package forkchoice implements the LMD-GHOST fork-choice rule: starting
// from the latest justified checkpoint, repeatedly descend into the child
// subtree carrying the greatest attesting stake, where each validator
// contributes only its latest block vote (paper Section 3.2: "The block
// vote is used in the fork choice rule which determines the chain to vote
// and build upon").
//
// ProtoArray (protoarray.go) is the engine: columnar latest messages,
// incrementally applied vote deltas over the block tree's flat index space,
// cached best-child pointers and the canonical chain they trace, so a
// steady-state head query is an O(1) read with zero allocations regardless
// of validator count and chain depth. Engine is the interface beacon nodes
// program against; the map-based recompute-everything reference that the
// tests hold ProtoArray bit-identical to implements it from
// internal/refmodel, which only tests import.
//
// Ties are broken by lexicographically smallest root, so that every correct
// validator with the same view computes the same head.
package forkchoice

import (
	"bytes"
	"errors"

	"repro/internal/blocktree"
	"repro/internal/types"
)

// ErrUnknownStart is returned when the starting block for head computation
// is not in the tree.
var ErrUnknownStart = errors.New("forkchoice: unknown start block")

// Message is a validator's latest block vote.
type Message struct {
	Root types.Root
	Slot types.Slot
}

// Engine is the fork-choice contract beacon nodes program against. Vote
// weights are pushed via UpdateStakes whenever the balances the rule weighs
// with change (the justified-state snapshot advancing), instead of being
// re-read through a callback on every head computation.
type Engine interface {
	// Process records a block vote; only votes newer (by slot) than the
	// current latest message replace it. Reports whether the store changed.
	Process(v types.ValidatorIndex, root types.Root, slot types.Slot) bool
	// ProcessBatch records one block vote cast by every listed validator,
	// exactly as Process per validator in listed order would, and returns
	// how many latest messages it replaced.
	ProcessBatch(validators []types.ValidatorIndex, root types.Root, slot types.Slot) int
	// Latest returns the latest message for v, if any.
	Latest(v types.ValidatorIndex) (Message, bool)
	// Len returns the number of validators with a recorded message.
	Len() int
	// UpdateStakes replaces the per-validator weights for validators
	// [0, n). The callback is consumed synchronously and not retained.
	UpdateStakes(n int, stake func(types.ValidatorIndex) types.Gwei)
	// Head runs LMD-GHOST on tree from start. Messages pointing at blocks
	// missing from the tree (e.g. not yet received across a partition) are
	// ignored.
	Head(tree *blocktree.Tree, start types.Root) (types.Root, error)
	// HeadFiltered is Head restricted to the visible portion of the tree:
	// descent skips the children named in hidden (empty = everything is
	// visible). Hidden roots the descent never reaches — absent from the
	// tree, on another branch, start itself or above it — have no effect.
	HeadFiltered(tree *blocktree.Tree, start types.Root, hidden []types.Root) (types.Root, error)
	// SubtreeWeight returns the attesting stake in root's subtree.
	SubtreeWeight(tree *blocktree.Tree, root types.Root) (types.Gwei, error)
	// CloneEngine deep-copies the engine, so partitioned views can
	// diverge.
	CloneEngine() Engine
	// Reset empties the engine to what its constructor returns — no votes,
	// no stakes, no tree — keeping storage for the next run to refill.
	Reset()
}

// lessRoot orders roots lexicographically; the engine breaks weight ties
// with it.
func lessRoot(a, b types.Root) bool {
	return bytes.Compare(a[:], b[:]) < 0
}
