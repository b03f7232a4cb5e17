// Package refmodel holds the map-based LMD-GHOST fork choice that the
// product's proto-array engine (forkchoice.ProtoArray) is held
// bit-identical to. It keeps nothing but the latest message per validator
// and the pushed stake column, and recomputes every subtree weight on every
// query: slow, and correct by inspection. The equivalence suites run it
// beside the proto-array — engine against engine in internal/forkchoice,
// whole simulations in internal/sim — and compare heads, filtered heads,
// subtree weights and per-epoch metrics.
//
// Only _test.go files import this package. TestProductDoesNotLinkRefmodel
// checks that no binary under cmd/ and not the public gasperleak package
// depends on it.
package refmodel

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/blocktree"
	"repro/internal/forkchoice"
	"repro/internal/types"
)

// ErrInconsistentTree is returned when a vote's ancestor walk hits a block
// whose parent is missing from the tree. The append-only, subtree-closed
// blocktree.Tree never allows that, so seeing it means the tree was
// corrupted, and any weight computed from it would silently drop stake.
var ErrInconsistentTree = errors.New("refmodel: inconsistent tree: ancestor walk hit a missing block")

// Oracle is the recompute-everything fork choice. The zero value is not
// usable; construct with NewOracle.
type Oracle struct {
	latest map[types.ValidatorIndex]forkchoice.Message
	stakes []types.Gwei
}

var _ forkchoice.Engine = (*Oracle)(nil)

// NewOracle returns an empty engine.
func NewOracle() *Oracle {
	return &Oracle{latest: make(map[types.ValidatorIndex]forkchoice.Message)}
}

// Process implements forkchoice.Engine: only a vote newer (by slot) than
// the current latest message replaces it.
func (o *Oracle) Process(v types.ValidatorIndex, root types.Root, slot types.Slot) bool {
	if cur, ok := o.latest[v]; ok && cur.Slot >= slot {
		return false
	}
	o.latest[v] = forkchoice.Message{Root: root, Slot: slot}
	return true
}

// ProcessBatch implements forkchoice.Engine.
func (o *Oracle) ProcessBatch(validators []types.ValidatorIndex, root types.Root, slot types.Slot) int {
	replaced := 0
	for _, v := range validators {
		if o.Process(v, root, slot) {
			replaced++
		}
	}
	return replaced
}

// Latest implements forkchoice.Engine.
func (o *Oracle) Latest(v types.ValidatorIndex) (forkchoice.Message, bool) {
	m, ok := o.latest[v]
	return m, ok
}

// Len implements forkchoice.Engine.
func (o *Oracle) Len() int { return len(o.latest) }

// UpdateStakes implements forkchoice.Engine.
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

// Head implements forkchoice.Engine.
func (o *Oracle) Head(tree *blocktree.Tree, start types.Root) (types.Root, error) {
	return o.HeadFiltered(tree, start, nil)
}

// HeadFiltered implements forkchoice.Engine: the descent from start skips
// every child named in hidden, and breaks weight ties by the
// lexicographically smallest root, as the proto-array does.
func (o *Oracle) HeadFiltered(tree *blocktree.Tree, start types.Root, hidden []types.Root) (types.Root, error) {
	if !tree.Has(start) {
		return types.Root{}, fmt.Errorf("%w: %s", forkchoice.ErrUnknownStart, start)
	}
	weights, err := o.subtreeWeights(tree)
	if err != nil {
		return types.Root{}, err
	}
	head := start
	for {
		var best types.Root
		var bestW types.Gwei
		found := false
		for _, c := range tree.Children(head) {
			if slices.Contains(hidden, c) {
				continue
			}
			w := weights[c]
			if !found || w > bestW || (w == bestW && bytes.Compare(c[:], best[:]) < 0) {
				best, bestW, found = c, w, true
			}
		}
		if !found {
			return head, nil
		}
		head = best
	}
}

// SubtreeWeight implements forkchoice.Engine.
func (o *Oracle) SubtreeWeight(tree *blocktree.Tree, root types.Root) (types.Gwei, error) {
	weights, err := o.subtreeWeights(tree)
	if err != nil {
		return 0, err
	}
	return weights[root], nil
}

// CloneEngine implements forkchoice.Engine.
func (o *Oracle) CloneEngine() forkchoice.Engine {
	out := NewOracle()
	//gasper:ordered per-key copy into a fresh map: the clone is the same whatever the order
	for v, m := range o.latest {
		out.latest[v] = m
	}
	out.stakes = slices.Clone(o.stakes)
	return out
}

// Reset implements forkchoice.Engine.
func (o *Oracle) Reset() {
	clear(o.latest)
	o.stakes = o.stakes[:0]
}

// subtreeWeights computes, for every block, the total stake of validators
// whose latest message is in that block's subtree. Votes for blocks the
// tree does not hold are ignored. Votes are grouped by target first, so
// the ancestor walks cost distinct targets times depth, not validators
// times depth. A walk that reaches a block whose parent is missing means
// the tree broke its subtree-closure invariant, and is reported as
// ErrInconsistentTree rather than dropping the rest of the vote's weight.
func (o *Oracle) subtreeWeights(tree *blocktree.Tree) (map[types.Root]types.Gwei, error) {
	byRoot := make(map[types.Root]types.Gwei, 16)
	//gasper:ordered commutative uint64 stake accumulation per target root; stake is a pure column lookup
	for v, m := range o.latest {
		w := o.stake(v)
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
