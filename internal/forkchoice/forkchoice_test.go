package forkchoice_test

import (
	"errors"
	"testing"

	"repro/internal/blocktree"
	"repro/internal/forkchoice"
	"repro/internal/refmodel"
	"repro/internal/types"
)

func root(v uint64) types.Root { return types.RootFromUint64(v) }

// newTree is a block tree holding only genesis.
func newTree(genesis types.Root) *blocktree.Tree {
	tree := new(blocktree.Tree)
	tree.Reset(genesis)
	return tree
}

func flatStake(types.ValidatorIndex) types.Gwei { return 32 }

// engines are the two implementations of the rule: the product's
// proto-array and the map-based reference it is held bit-identical to.
var engines = []struct {
	name string
	new  func() forkchoice.Engine
}{
	{"proto-array", func() forkchoice.Engine { return new(forkchoice.ProtoArray) }},
	{"map-oracle", func() forkchoice.Engine { return refmodel.NewOracle() }},
}

// forEachEngine runs test once per engine, as a subtest named after it.
func forEachEngine(t *testing.T, test func(t *testing.T, newEngine func() forkchoice.Engine)) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) { test(t, e.new) })
	}
}

// forkTree builds:
//
//	genesis -> a1(1) -> a2(2)
//	        -> b1(1)
func forkTree(t *testing.T) *blocktree.Tree {
	t.Helper()
	tree := newTree(root(0))
	for _, b := range []blocktree.Block{
		{Slot: 1, Root: root(10), Parent: root(0)},
		{Slot: 2, Root: root(11), Parent: root(10)},
		{Slot: 1, Root: root(20), Parent: root(0)},
	} {
		if err := tree.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

func TestHeadNoVotesPicksDeterministicLeaf(t *testing.T) {
	forEachEngine(t, func(t *testing.T, newEngine func() forkchoice.Engine) {
		tree := forkTree(t)
		s := newEngine()
		head, err := s.Head(tree, root(0))
		if err != nil {
			t.Fatal(err)
		}
		// With zero weights everywhere, ties break to the lexicographically
		// smallest root at each level. root(10) < root(20) big-endian.
		if head != root(11) {
			t.Errorf("head = %v, want deterministic tie-break to %v", head, root(11))
		}
	})
}

func TestHeadFollowsMajority(t *testing.T) {
	forEachEngine(t, func(t *testing.T, newEngine func() forkchoice.Engine) {
		tree := forkTree(t)
		s := newEngine()
		s.UpdateStakes(4, flatStake)
		s.Process(1, root(20), 1)
		s.Process(2, root(20), 1)
		s.Process(3, root(11), 2)
		head, err := s.Head(tree, root(0))
		if err != nil {
			t.Fatal(err)
		}
		if head != root(20) {
			t.Errorf("head = %v, want majority branch %v", head, root(20))
		}
	})
}

func TestHeadWeighsByStake(t *testing.T) {
	forEachEngine(t, func(t *testing.T, newEngine func() forkchoice.Engine) {
		tree := forkTree(t)
		s := newEngine()
		// Validator 3 alone outweighs 1+2.
		s.UpdateStakes(4, func(v types.ValidatorIndex) types.Gwei {
			if v == 3 {
				return 100
			}
			return 32
		})
		s.Process(1, root(20), 1)
		s.Process(2, root(20), 1)
		s.Process(3, root(11), 2)
		head, err := s.Head(tree, root(0))
		if err != nil {
			t.Fatal(err)
		}
		if head != root(11) {
			t.Errorf("head = %v, want heavy-stake branch %v", head, root(11))
		}
	})
}

func TestHeadFromJustifiedRoot(t *testing.T) {
	forEachEngine(t, func(t *testing.T, newEngine func() forkchoice.Engine) {
		tree := forkTree(t)
		s := newEngine()
		s.UpdateStakes(3, flatStake)
		// All votes on branch B, but fork choice constrained to start at a1:
		// must stay within a's subtree.
		s.Process(1, root(20), 1)
		s.Process(2, root(20), 1)
		head, err := s.Head(tree, root(10))
		if err != nil {
			t.Fatal(err)
		}
		if head != root(11) {
			t.Errorf("head = %v, want %v (descend within start subtree)", head, root(11))
		}
	})
}

func TestHeadUnknownStart(t *testing.T) {
	forEachEngine(t, func(t *testing.T, newEngine func() forkchoice.Engine) {
		tree := forkTree(t)
		if _, err := newEngine().Head(tree, root(99)); !errors.Is(err, forkchoice.ErrUnknownStart) {
			t.Errorf("want ErrUnknownStart, got %v", err)
		}
	})
}

func TestProcessKeepsNewestOnly(t *testing.T) {
	forEachEngine(t, func(t *testing.T, newEngine func() forkchoice.Engine) {
		s := newEngine()
		if !s.Process(1, root(10), 5) {
			t.Error("first message should be recorded")
		}
		if s.Process(1, root(20), 4) {
			t.Error("older message must not replace newer")
		}
		if s.Process(1, root(20), 5) {
			t.Error("same-slot message must not replace existing")
		}
		if !s.Process(1, root(20), 6) {
			t.Error("newer message must replace")
		}
		m, ok := s.Latest(1)
		if !ok || m.Root != root(20) || m.Slot != 6 {
			t.Errorf("latest = %+v", m)
		}
		if s.Len() != 1 {
			t.Errorf("Len = %d, want 1", s.Len())
		}
	})
}

func TestVotesForMissingBlocksIgnored(t *testing.T) {
	forEachEngine(t, func(t *testing.T, newEngine func() forkchoice.Engine) {
		tree := forkTree(t)
		s := newEngine()
		s.UpdateStakes(3, flatStake)
		s.Process(1, root(77), 3) // block not in tree (other partition)
		s.Process(2, root(20), 1)
		head, err := s.Head(tree, root(0))
		if err != nil {
			t.Fatal(err)
		}
		if head != root(20) {
			t.Errorf("head = %v, want %v (unknown-block vote ignored)", head, root(20))
		}
	})
}

func TestZeroStakeVotesIgnored(t *testing.T) {
	forEachEngine(t, func(t *testing.T, newEngine func() forkchoice.Engine) {
		tree := forkTree(t)
		s := newEngine()
		s.UpdateStakes(3, func(v types.ValidatorIndex) types.Gwei {
			if v == 1 {
				return 0 // e.g. ejected
			}
			return 32
		})
		s.Process(1, root(20), 1)
		s.Process(2, root(11), 2)
		head, err := s.Head(tree, root(0))
		if err != nil {
			t.Fatal(err)
		}
		if head != root(11) {
			t.Errorf("head = %v, want %v", head, root(11))
		}
	})
}

func TestWeightOf(t *testing.T) {
	forEachEngine(t, func(t *testing.T, newEngine func() forkchoice.Engine) {
		tree := forkTree(t)
		s := newEngine()
		s.UpdateStakes(3, flatStake)
		s.Process(1, root(11), 2)
		s.Process(2, root(10), 1)
		if got, err := s.SubtreeWeight(tree, root(10)); err != nil || got != 64 {
			t.Errorf("weight(a1) = %d (%v), want 64 (both a-branch votes)", got, err)
		}
		if got, err := s.SubtreeWeight(tree, root(11)); err != nil || got != 32 {
			t.Errorf("weight(a2) = %d (%v), want 32", got, err)
		}
		if got, err := s.SubtreeWeight(tree, root(20)); err != nil || got != 0 {
			t.Errorf("weight(b1) = %d (%v), want 0", got, err)
		}
	})
}

func TestCloneIndependence(t *testing.T) {
	forEachEngine(t, func(t *testing.T, newEngine func() forkchoice.Engine) {
		s := newEngine()
		s.Process(1, root(10), 1)
		c := s.CloneEngine()
		c.Process(1, root(20), 2)
		m, _ := s.Latest(1)
		if m.Root != root(10) {
			t.Error("clone mutation leaked into original")
		}
	})
}

func TestHeadDeterministicAcrossRuns(t *testing.T) {
	forEachEngine(t, func(t *testing.T, newEngine func() forkchoice.Engine) {
		tree := forkTree(t)
		s := newEngine()
		s.UpdateStakes(10, flatStake)
		for v := types.ValidatorIndex(0); v < 10; v++ {
			if v%2 == 0 {
				s.Process(v, root(11), 2)
			} else {
				s.Process(v, root(20), 1)
			}
		}
		first, err := s.Head(tree, root(0))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			h, err := s.Head(tree, root(0))
			if err != nil {
				t.Fatal(err)
			}
			if h != first {
				t.Fatalf("head changed between identical runs: %v vs %v", h, first)
			}
		}
	})
}
