package forkchoice_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/blocktree"
	"repro/internal/forkchoice"
	"repro/internal/refmodel"
	"repro/internal/types"
)

// randomTree builds a deterministic random tree of n blocks over the given
// RNG, returning the tree and all roots.
func randomTree(rng *rand.Rand, n int) (*blocktree.Tree, []types.Root) {
	tree := newTree(types.RootFromUint64(0))
	roots := []types.Root{types.RootFromUint64(0)}
	slots := map[types.Root]types.Slot{types.RootFromUint64(0): 0}
	for i := 1; i <= n; i++ {
		parent := roots[rng.Intn(len(roots))]
		r := types.RootFromUint64(uint64(i))
		b := blocktree.Block{Slot: slots[parent] + 1 + types.Slot(rng.Intn(3)), Root: r, Parent: parent}
		if err := tree.Add(b); err != nil {
			continue
		}
		slots[r] = b.Slot
		roots = append(roots, r)
	}
	return tree, roots
}

// TestHeadIsLeafInStartSubtreeProperty: for random trees and random vote
// assignments, the head is always a leaf and a descendant of the start
// block.
func TestHeadIsLeafInStartSubtreeProperty(t *testing.T) {
	forEachEngine(t, func(t *testing.T, newEngine func() forkchoice.Engine) {
		f := func(seed int64, votes uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			tree, roots := randomTree(rng, 30)
			s := newEngine()
			s.UpdateStakes(40, flatStake)
			for v := 0; v < int(votes%40); v++ {
				target := roots[rng.Intn(len(roots))]
				s.Process(types.ValidatorIndex(v), target, types.Slot(v+1))
			}
			head, err := s.Head(tree, tree.Genesis())
			if err != nil {
				return false
			}
			if !tree.IsAncestor(tree.Genesis(), head) {
				return false
			}
			return len(tree.Children(head)) == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Error(err)
		}
	})
}

// TestSubtreeWeightConservationProperty: the genesis subtree weight equals
// the total stake of validators whose vote targets a known block.
func TestSubtreeWeightConservationProperty(t *testing.T) {
	forEachEngine(t, func(t *testing.T, newEngine func() forkchoice.Engine) {
		f := func(seed int64, votes uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			tree, roots := randomTree(rng, 25)
			s := newEngine()
			s.UpdateStakes(30, flatStake)
			counted := types.Gwei(0)
			for v := 0; v < int(votes%30); v++ {
				target := roots[rng.Intn(len(roots))]
				s.Process(types.ValidatorIndex(v), target, types.Slot(v+1))
				counted += 32
			}
			got, err := s.SubtreeWeight(tree, tree.Genesis())
			// The inconsistency branch must never fire on a well-formed tree.
			return err == nil && got == counted
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Error(err)
		}
	})
}

// TestHeadStableUnderVoteOrderProperty: processing the same votes in a
// different order yields the same head (latest-message semantics are
// order-independent for distinct slots).
func TestHeadStableUnderVoteOrderProperty(t *testing.T) {
	forEachEngine(t, func(t *testing.T, newEngine func() forkchoice.Engine) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			tree, roots := randomTree(rng, 20)
			type vote struct {
				v    types.ValidatorIndex
				root types.Root
				slot types.Slot
			}
			var votes []vote
			for v := 0; v < 12; v++ {
				votes = append(votes, vote{
					v:    types.ValidatorIndex(v),
					root: roots[rng.Intn(len(roots))],
					slot: types.Slot(rng.Intn(50) + 1),
				})
			}
			a, b := newEngine(), newEngine()
			a.UpdateStakes(12, flatStake)
			b.UpdateStakes(12, flatStake)
			for _, vt := range votes {
				a.Process(vt.v, vt.root, vt.slot)
			}
			for i := len(votes) - 1; i >= 0; i-- {
				b.Process(votes[i].v, votes[i].root, votes[i].slot)
			}
			ha, err1 := a.Head(tree, tree.Genesis())
			hb, err2 := b.Head(tree, tree.Genesis())
			return err1 == nil && err2 == nil && ha == hb
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Error(err)
		}
	})
}

// TestEngineEquivalenceUnderCompactionProperty: compacting the block tree
// mid-stream (pinning live vote targets, as beacon nodes do) never
// diverges the incremental proto-array from the recompute-everything
// oracle — neither right after the forced rebuild nor after further votes
// land on the compacted tree — and the head stays a leaf in the genesis
// subtree. Filtered heads are held to the same bar, with hidden lists drawn
// from the surviving and the folded roots alike (a folded root is one the
// tree no longer holds) and starts on and off the canonical chain.
func TestEngineEquivalenceUnderCompactionProperty(t *testing.T) {
	f := func(seed int64, votes, wmSel uint8) bool {
		const n = 24
		rng := rand.New(rand.NewSource(seed))
		tree, roots := randomTree(rng, 40)
		proto := new(forkchoice.ProtoArray)
		oracle := refmodel.NewOracle()
		proto.UpdateStakes(n, flatStake)
		oracle.UpdateStakes(n, flatStake)
		vote := func(v int) {
			target := roots[rng.Intn(len(roots))]
			proto.Process(types.ValidatorIndex(v), target, types.Slot(v+1))
			oracle.Process(types.ValidatorIndex(v), target, types.Slot(v+1))
		}
		for v := 0; v < int(votes%n); v++ {
			vote(v)
		}
		if _, err := proto.Head(tree, tree.Genesis()); err != nil {
			return false
		}
		wm, err := tree.Slot(roots[int(wmSel)%len(roots)])
		if err != nil {
			return false
		}
		pinned := map[types.Root]bool{}
		for v := types.ValidatorIndex(0); v < n; v++ {
			if m, ok := proto.Latest(v); ok {
				pinned[m.Root] = true
			}
		}
		tree.Compact(wm, func(r types.Root) bool { return pinned[r] })
		agree := func() bool {
			ph, err1 := proto.Head(tree, tree.Genesis())
			oh, err2 := oracle.Head(tree, tree.Genesis())
			if err1 != nil || err2 != nil || ph != oh {
				return false
			}
			for i := 0; i < 4; i++ {
				start := roots[rng.Intn(len(roots))]
				if !tree.Has(start) {
					start = tree.Genesis()
				}
				hidden := []types.Root{ph, roots[rng.Intn(len(roots))], roots[rng.Intn(len(roots))]}[:1+rng.Intn(3)]
				pf, err1 := proto.HeadFiltered(tree, start, hidden)
				of, err2 := oracle.HeadFiltered(tree, start, hidden)
				if err1 != nil || err2 != nil || pf != of {
					return false
				}
				if !tree.IsAncestor(start, pf) || (pf != start && slices.Contains(hidden, pf)) {
					return false
				}
			}
			return tree.IsAncestor(tree.Genesis(), ph) && len(tree.Children(ph)) == 0
		}
		if !agree() {
			return false
		}
		// Keep voting on the compacted tree: survivors stay addressable,
		// folded targets park identically in both engines.
		for v := 0; v < 8; v++ {
			vote(v)
		}
		return agree()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
