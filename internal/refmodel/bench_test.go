package refmodel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blocktree"
	"repro/internal/types"
)

// BenchmarkHeadOracle is the map-based reference on the fixture shape of
// internal/forkchoice's BenchmarkHead (a 256-block random tree, votes on
// its 8 most recent blocks), for the BENCH.md before/after comparison. It
// rebuilds every weight map per call, so its cost scales with validator
// count.
func BenchmarkHeadOracle(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("steady-%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			tree := new(blocktree.Tree)
			tree.Reset(types.RootFromUint64(0))
			roots := []types.Root{tree.Genesis()}
			for i := 1; i <= 256; i++ {
				parent := roots[rng.Intn(len(roots))]
				ps, err := tree.Slot(parent)
				if err != nil {
					b.Fatal(err)
				}
				blk := blocktree.Block{Slot: ps + 1 + types.Slot(rng.Intn(3)), Root: types.RootFromUint64(uint64(i)), Parent: parent}
				if err := tree.Add(blk); err != nil {
					b.Fatal(err)
				}
				roots = append(roots, blk.Root)
			}
			o := NewOracle()
			o.UpdateStakes(n, func(types.ValidatorIndex) types.Gwei { return 32_000_000_000 })
			recent := roots[len(roots)-8:]
			for v := 0; v < n; v++ {
				o.Process(types.ValidatorIndex(v), recent[v%len(recent)], types.Slot(v+1))
			}
			genesis := tree.Genesis()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.Head(tree, genesis); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
