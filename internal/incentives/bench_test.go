package incentives

import (
	"fmt"
	"testing"

	"repro/internal/types"
)

// BenchmarkProcessColumn measures the incentive sweep on its own, in a
// leak at the paper's quotient, over 10^4 and 10^6 validators with every
// other one active, and reports the time per registry row. The registry
// is reset off the clock every rearmEvery epochs, long before the inactive
// half nears the ejection balance, so every timed epoch is a steady-state
// one that ejects no one and allocates nothing; the CI bench gate holds
// it at 0 allocs/op.
func BenchmarkProcessColumn(b *testing.B) {
	const rearmEvery = 2000
	for _, n := range []int{10_000, 1_000_000} {
		b.Run(fmt.Sprintf("rows-%d", n), func(b *testing.B) {
			e := Engine{Spec: types.DefaultSpec()}
			reg := newRegistry(n, e.Spec.MaxEffectiveBalance)
			active := make([]bool, n)
			for v := range active {
				active[v] = v%2 == 0
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%rearmEvery == 0 {
					b.StopTimer()
					reg.Reset(n, e.Spec.MaxEffectiveBalance)
					b.StartTimer()
				}
				e.ProcessColumn(reg, active, true, types.Epoch(i%rearmEvery+1))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
		})
	}
}
