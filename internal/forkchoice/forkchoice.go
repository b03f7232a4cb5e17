// Package forkchoice implements the LMD-GHOST fork-choice rule: starting
// from the latest justified checkpoint, repeatedly descend into the child
// subtree carrying the greatest attesting stake, where each validator
// contributes only its latest block vote (paper Section 3.2: "The block
// vote is used in the fork choice rule which determines the chain to vote
// and build upon").
//
// Two engines implement the rule:
//
//   - ProtoArray (protoarray.go) is the production engine: columnar latest
//     messages, incrementally applied vote deltas over the block tree's
//     flat index space, cached best-child pointers and the canonical chain
//     they trace, so a steady-state head query is an O(1) read with zero
//     allocations regardless of validator count and chain depth.
//   - Store (this file) is the original recompute-everything map engine,
//     retained behind NewStore/NewOracle as the correctness oracle: the
//     randomized equivalence suite asserts the two return bit-identical
//     heads, filtered heads, and subtree weights.
//
// Ties are broken by lexicographically smallest root in both engines so
// that every correct validator with the same view computes the same head.
package forkchoice

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/blocktree"
	"repro/internal/types"
)

// ErrUnknownStart is returned when the starting block for head computation
// is not in the tree.
var ErrUnknownStart = errors.New("forkchoice: unknown start block")

// ErrInconsistentTree is returned when a vote's ancestor walk hits a block
// whose parent is missing from the tree — impossible for the append-only,
// subtree-closed blocktree.Tree, so seeing it means the tree was corrupted
// and any weight computed from it would silently drop stake.
var ErrInconsistentTree = errors.New("forkchoice: inconsistent tree: ancestor walk hit a missing block")

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
}

// Store holds the latest messages of the map-based oracle engine. The zero
// value is not usable; construct with NewStore.
type Store struct {
	latest map[types.ValidatorIndex]Message
}

// NewStore returns an empty latest-message store.
func NewStore() *Store {
	return &Store{latest: make(map[types.ValidatorIndex]Message)}
}

// Clone deep-copies the store, so partitioned views can diverge.
func (s *Store) Clone() *Store {
	out := NewStore()
	//gasper:ordered per-key copy into a fresh map: the clone is the same whatever the order
	for v, m := range s.latest {
		out.latest[v] = m
	}
	return out
}

// Process records a block vote; only votes newer (by slot) than the current
// latest message replace it. It reports whether the store changed.
func (s *Store) Process(v types.ValidatorIndex, root types.Root, slot types.Slot) bool {
	cur, ok := s.latest[v]
	if ok && cur.Slot >= slot {
		return false
	}
	s.latest[v] = Message{Root: root, Slot: slot}
	return true
}

// Latest returns the latest message for v, if any.
func (s *Store) Latest(v types.ValidatorIndex) (Message, bool) {
	m, ok := s.latest[v]
	return m, ok
}

// Len returns the number of validators with a recorded message.
func (s *Store) Len() int { return len(s.latest) }

// Head runs LMD-GHOST on tree from start, weighing votes with stake.
// Messages pointing at blocks missing from the tree (e.g. not yet received
// across a partition) are ignored.
func (s *Store) Head(tree *blocktree.Tree, start types.Root, stake func(types.ValidatorIndex) types.Gwei) (types.Root, error) {
	return s.HeadFiltered(tree, start, stake, nil)
}

// HeadFiltered is Head restricted to the visible portion of the tree:
// descent skips the children named in hidden (empty = everything is
// visible). The view-cohort simulator uses it to compute a member's head
// while blocks another member produced this slot are still in flight — a
// per-validator difference the shared tree would otherwise erase.
func (s *Store) HeadFiltered(tree *blocktree.Tree, start types.Root, stake func(types.ValidatorIndex) types.Gwei, hidden []types.Root) (types.Root, error) {
	if !tree.Has(start) {
		return types.Root{}, fmt.Errorf("%w: %s", ErrUnknownStart, start)
	}
	weights, err := s.subtreeWeights(tree, stake)
	if err != nil {
		return types.Root{}, err
	}
	head := start
	for {
		children := tree.Children(head)
		var best types.Root
		var bestW types.Gwei
		found := false
		for _, c := range children {
			if slices.Contains(hidden, c) {
				continue
			}
			w := weights[c]
			if !found || w > bestW || (w == bestW && lessRoot(c, best)) {
				best, bestW, found = c, w, true
			}
		}
		if !found {
			return head, nil
		}
		head = best
	}
}

// subtreeWeights computes, for every block, the total stake of validators
// whose latest message is in that block's subtree. Votes are first grouped
// by target block, then each distinct target's ancestor path is walked
// once: with paper-scale validator counts the latest messages concentrate
// on a handful of recent blocks, so the walk cost is distinct-roots x
// depth, not validators x depth.
//
// The walk hitting a block whose parent is gone means the tree violated its
// subtree-closure invariant; that would silently truncate the vote's
// remaining ancestor weight, so it is surfaced as ErrInconsistentTree
// instead of being dropped.
func (s *Store) subtreeWeights(tree *blocktree.Tree, stake func(types.ValidatorIndex) types.Gwei) (map[types.Root]types.Gwei, error) {
	byRoot := make(map[types.Root]types.Gwei, 16)
	//gasper:ordered commutative uint64 stake accumulation per target root; stake() is a pure column lookup
	for v, m := range s.latest {
		w := stake(v)
		if w == 0 || !tree.Has(m.Root) {
			continue
		}
		byRoot[m.Root] += w
	}
	weights := make(map[types.Root]types.Gwei, tree.Len())
	genesis := tree.Genesis()
	//gasper:ordered each target adds its weight along its own ancestor path; per-block sums commute
	for root, w := range byRoot {
		cur := root
		for {
			weights[cur] += w
			if cur == genesis {
				break
			}
			b, err := tree.Block(cur)
			if err != nil {
				return nil, fmt.Errorf("%w: block %s on the ancestor path of vote target %s", ErrInconsistentTree, cur, root)
			}
			cur = b.Parent
		}
	}
	return weights, nil
}

// WeightOf returns the attesting stake in root's subtree, for tests and
// diagnostics.
func (s *Store) WeightOf(tree *blocktree.Tree, root types.Root, stake func(types.ValidatorIndex) types.Gwei) (types.Gwei, error) {
	weights, err := s.subtreeWeights(tree, stake)
	if err != nil {
		return 0, err
	}
	return weights[root], nil
}

// Oracle adapts the map-based Store to the Engine interface by carrying the
// pushed stake column the interface expects. It exists so the equivalence
// suites can run whole simulations on the reference engine; production
// views use ProtoArray.
type Oracle struct {
	store  *Store
	stakes []types.Gwei
}

// NewOracle returns the map-based reference engine.
func NewOracle() *Oracle {
	return &Oracle{store: NewStore()}
}

// Process implements Engine.
func (o *Oracle) Process(v types.ValidatorIndex, root types.Root, slot types.Slot) bool {
	return o.store.Process(v, root, slot)
}

// ProcessBatch implements Engine.
func (o *Oracle) ProcessBatch(validators []types.ValidatorIndex, root types.Root, slot types.Slot) int {
	replaced := 0
	for _, v := range validators {
		if o.store.Process(v, root, slot) {
			replaced++
		}
	}
	return replaced
}

// Latest implements Engine.
func (o *Oracle) Latest(v types.ValidatorIndex) (Message, bool) { return o.store.Latest(v) }

// Len implements Engine.
func (o *Oracle) Len() int { return o.store.Len() }

// UpdateStakes implements Engine.
func (o *Oracle) UpdateStakes(n int, stake func(types.ValidatorIndex) types.Gwei) {
	if n > len(o.stakes) {
		o.stakes = append(o.stakes, make([]types.Gwei, n-len(o.stakes))...)
	}
	for i := 0; i < n; i++ {
		o.stakes[i] = stake(types.ValidatorIndex(i))
	}
}

func (o *Oracle) stake(v types.ValidatorIndex) types.Gwei {
	if int(v) >= len(o.stakes) {
		return 0
	}
	return o.stakes[v]
}

// Head implements Engine.
func (o *Oracle) Head(tree *blocktree.Tree, start types.Root) (types.Root, error) {
	return o.store.HeadFiltered(tree, start, o.stake, nil)
}

// HeadFiltered implements Engine.
func (o *Oracle) HeadFiltered(tree *blocktree.Tree, start types.Root, hidden []types.Root) (types.Root, error) {
	return o.store.HeadFiltered(tree, start, o.stake, hidden)
}

// SubtreeWeight implements Engine.
func (o *Oracle) SubtreeWeight(tree *blocktree.Tree, root types.Root) (types.Gwei, error) {
	return o.store.WeightOf(tree, root, o.stake)
}

// CloneEngine implements Engine.
func (o *Oracle) CloneEngine() Engine {
	out := &Oracle{store: o.store.Clone(), stakes: make([]types.Gwei, len(o.stakes))}
	copy(out.stakes, o.stakes)
	return out
}

// lessRoot orders roots lexicographically; both engines break weight ties
// with it so they pick identical heads.
func lessRoot(a, b types.Root) bool {
	return bytes.Compare(a[:], b[:]) < 0
}
