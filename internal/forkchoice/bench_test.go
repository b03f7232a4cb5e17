package forkchoice_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blocktree"
	"repro/internal/forkchoice"
	"repro/internal/types"
)

// protoFixture builds a 256-block random tree with n validators voting on
// recent blocks and all deltas applied, leaving the engine in steady state.
func protoFixture(b *testing.B, n int) (*forkchoice.ProtoArray, *blocktree.Tree) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	tree, roots := randomTree(rng, 256)
	p := new(forkchoice.ProtoArray)
	p.UpdateStakes(n, func(types.ValidatorIndex) types.Gwei { return 32_000_000_000 })
	// Latest messages concentrate on recent blocks, as in a live run.
	recent := roots[len(roots)-8:]
	for v := 0; v < n; v++ {
		p.Process(types.ValidatorIndex(v), recent[v%len(recent)], types.Slot(v+1))
	}
	if _, err := p.Head(tree, tree.Genesis()); err != nil {
		b.Fatal(err)
	}
	return p, tree
}

// BenchmarkHead measures the steady-state proto-array head query — the
// per-slot hot path — at 1k, 100k, and 1M validators. The cost must be
// near-flat in validator count (a cached-pointer chase) and allocation-free;
// the CI bench-smoke job fails if allocs/op is nonzero. engine-B/validator
// is the engine's retained bytes (Stats) over its validators: a count, not
// a time, that the gate holds at 1M, where the per-validator columns
// outweigh the 256-node tree's.
func BenchmarkHead(b *testing.B) {
	for _, n := range []int{1_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("steady-%d", n), func(b *testing.B) {
			p, tree := protoFixture(b, n)
			genesis := tree.Genesis()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Head(tree, genesis); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := p.Stats()
			b.ReportMetric(float64(st.Bytes)/float64(st.Validators), "engine-B/validator")
		})
	}
}

// BenchmarkHeadDeepChain measures a slot of a stalled-finality run on an
// unbranched chain depth blocks below the start of the descent: one new
// block, a 128-validator batch moving its votes from the old tip to the new
// one, and a head query with the new tip hidden (its proposer's cohort mates
// have not seen it yet). Nothing in that scales with the chain: the moved
// weight settles between the two tips and the filtered descent leaves the
// cached chain at the hidden block's position. CI gates 0 allocs/op and
// depth-4096 within 1.5x of depth-256. Growing the tree is the block
// tree's cost, not fork choice's, and stays off the clock.
func BenchmarkHeadDeepChain(b *testing.B) {
	for _, depth := range []int{256, 4096} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			tree := newTree(types.RootFromUint64(0))
			extend := func(i int) types.Root {
				blk := blocktree.Block{Slot: types.Slot(i), Root: types.RootFromUint64(uint64(i)), Parent: types.RootFromUint64(uint64(i - 1))}
				if err := tree.Add(blk); err != nil {
					b.Fatal(err)
				}
				return blk.Root
			}
			tip := tree.Genesis()
			for i := 1; i <= depth; i++ {
				tip = extend(i)
			}
			validators := make([]types.ValidatorIndex, 128)
			for i := range validators {
				validators[i] = types.ValidatorIndex(i)
			}
			p := new(forkchoice.ProtoArray)
			p.UpdateStakes(len(validators), func(types.ValidatorIndex) types.Gwei { return 32_000_000_000 })
			p.ProcessBatch(validators, tip, types.Slot(depth))
			if _, err := p.Head(tree, tree.Genesis()); err != nil {
				b.Fatal(err)
			}
			genesis := tree.Genesis()
			hidden := make([]types.Root, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				parent := tip
				tip = extend(depth + 1 + i)
				b.StartTimer()
				p.ProcessBatch(validators, tip, types.Slot(depth+1+i))
				hidden[0] = tip
				head, err := p.HeadFiltered(tree, genesis, hidden)
				if err != nil || head != parent {
					b.Fatalf("head = %v (%v), want the hidden tip's parent %v", head, err, parent)
				}
			}
		})
	}
}

// BenchmarkHeadVoteChurn measures a head query absorbing a slot's worth of
// moved votes (one cohort batch re-targeting), the incremental-delta path.
func BenchmarkHeadVoteChurn(b *testing.B) {
	for _, n := range []int{100_000} {
		b.Run(fmt.Sprintf("churn-%d", n), func(b *testing.B) {
			p, tree := protoFixture(b, n)
			rng := rand.New(rand.NewSource(2))
			var leaves []types.Root
			for _, l := range tree.Leaves() {
				leaves = append(leaves, l.Root)
			}
			genesis := tree.Genesis()
			const batch = 3_000 // ~n/32 attesters per slot
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				target := leaves[rng.Intn(len(leaves))]
				base := types.ValidatorIndex((i * batch) % n)
				for v := types.ValidatorIndex(0); v < batch; v++ {
					p.Process((base+v)%types.ValidatorIndex(n), target, types.Slot(n+i+2))
				}
				if _, err := p.Head(tree, genesis); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProcess measures latest-message ingestion into the proto-array's
// columnar store.
func BenchmarkProcess(b *testing.B) {
	p := new(forkchoice.ProtoArray)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Process(types.ValidatorIndex(i%256), types.RootFromUint64(uint64(i)), types.Slot(i))
	}
}

// BenchmarkClone measures forking a paper-scale engine for a partitioned
// view — flat column copies, no map rehash.
func BenchmarkClone(b *testing.B) {
	p, _ := protoFixture(b, 1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.CloneEngine().Len() != 1_000_000 {
			b.Fatal("clone lost votes")
		}
	}
}
