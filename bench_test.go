// Package repro's benchmark harness regenerates "Byzantine Attacks
// Exploiting Penalties in Ethereum PoS" (DSN 2024): BenchmarkLedger reports
// every measure of the paper's claim ledger (report.Claims) that names a
// metric unit, so `go test -bench=. -benchmem` doubles as the reproduction
// record; the kernel and worker-scaling benchmarks time the engines.
package repro

import (
	"context"
	"runtime"
	"testing"

	"repro/gasperleak"
	"repro/internal/engine"
	"repro/internal/report"
)

// BenchmarkLedger has one sub-benchmark per benchmarked measure of
// report.Claims, named artifact/row/model, each reporting the measured
// value under the measure's unit.
func BenchmarkLedger(b *testing.B) {
	for _, c := range report.Claims {
		for _, m := range c.By {
			if m.Unit == "" {
				continue
			}
			b.Run(c.Artifact+"/"+c.Row+"/"+string(m.Model), func(b *testing.B) {
				var v float64
				for i := 0; i < b.N; i++ {
					var err error
					if v, err = m.Value(context.Background(), engine.Options{}); err != nil {
						b.Fatal(err)
					}
				}
				if m.Report != nil {
					v = m.Report(v)
				}
				b.ReportMetric(v, m.Unit)
			})
		}
	}
}

// BenchmarkProtocolSimHealthyEpoch measures the cost of one healthy-network
// protocol epoch (16 validators), the substrate's unit of work.
func BenchmarkProtocolSimHealthyEpoch(b *testing.B) {
	s, err := gasperleak.NewSimulation(gasperleak.SimConfig{
		Validators: 16,
		Spec:       gasperleak.DefaultSpec(),
		Delay:      1,
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunEpochs(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolSimPaperScaleEpoch measures one healthy-network
// protocol epoch at paper scale (10,000 validators) on the view-cohort
// kernel: the full protocol — block tree, LMD-GHOST, FFG, attestation
// pool, columnar registry — at 625x the validator count of the
// per-validator benchmark above, at comparable wall-clock.
func BenchmarkProtocolSimPaperScaleEpoch(b *testing.B) {
	s, err := gasperleak.NewSimulation(gasperleak.SimConfig{
		Validators: 10000,
		Spec:       gasperleak.DefaultSpec(),
		Delay:      1,
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.RunEpochs(1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunEpochs(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeakSimFullScale measures one full-scale (9000-epoch, 10k
// validators) aggregate leak simulation — the engine behind Tables 2-3.
func BenchmarkLeakSimFullScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := gasperleak.LeakSim{N: 10000, P0: 0.5, Beta0: 0.2, Mode: gasperleak.ByzDoubleVote}
		if _, err := sim.Run(9000, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClient builds a client sweeping on the given worker count (0 = all
// CPUs).
func benchClient(b *testing.B, workers int) *gasperleak.Client {
	b.Helper()
	c, err := gasperleak.NewClient(gasperleak.WithWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// benchmarkSweepTable1 runs the Table 1 scenario sweep through the engine
// with the given worker count and reports the 5.1 conflict epoch.
func benchmarkSweepTable1(b *testing.B, workers int) {
	c := benchClient(b, workers)
	var epoch float64
	for i := 0; i < b.N; i++ {
		results := c.Sweep(context.Background(), gasperleak.Table1Cells(1))
		if err := gasperleak.SweepFirstError(results); err != nil {
			b.Fatal(err)
		}
		epoch, _ = results[0].Metric("sim_epoch")
	}
	b.ReportMetric(epoch, "conflict-epochs(5.1)")
}

// BenchmarkSweepTable1Workers1 is the sequential baseline of the Table 1
// sweep; compare with BenchmarkSweepTable1WorkersMax for the worker-pool
// speedup (see EXPERIMENTS.md).
func BenchmarkSweepTable1Workers1(b *testing.B) { benchmarkSweepTable1(b, 1) }

// BenchmarkSweepTable1WorkersMax runs the same sweep on all CPUs. Results
// are bit-identical to the sequential run; only the wall time changes.
func BenchmarkSweepTable1WorkersMax(b *testing.B) { benchmarkSweepTable1(b, runtime.NumCPU()) }

// benchmarkSweepLeakGrid sweeps a 20-cell uniform leaksim grid (p0 x
// beta0 x mode at full paper scale) with the given worker count — the
// scaling probe for the worker pool, since every cell costs about the
// same.
func benchmarkSweepLeakGrid(b *testing.B, workers int) {
	grid := gasperleak.SweepGrid{
		Scenario: "leaksim",
		P0:       []float64{0.3, 0.4, 0.5, 0.6, 0.7},
		Beta0:    []float64{0.1, 0.2},
		Modes:    []string{"double", "semi"},
	}
	cells := grid.Cells()
	c := benchClient(b, workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := c.Sweep(context.Background(), cells)
		if err := gasperleak.SweepFirstError(results); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepLeakGridWorkers1 is the sequential baseline of the
// 20-cell leaksim grid.
func BenchmarkSweepLeakGridWorkers1(b *testing.B) { benchmarkSweepLeakGrid(b, 1) }

// BenchmarkSweepLeakGridWorkersMax runs the same grid on all CPUs.
func BenchmarkSweepLeakGridWorkersMax(b *testing.B) { benchmarkSweepLeakGrid(b, runtime.NumCPU()) }

// TestBenchHarnessSmoke keeps BenchmarkLedger's output unambiguous: every
// benchmarked measure reports under a unit no other measure uses, so one
// unit is one line of the reproduction record.
func TestBenchHarnessSmoke(t *testing.T) {
	seen := map[string]string{}
	for _, c := range report.Claims {
		for _, m := range c.By {
			if m.Unit == "" {
				continue
			}
			row := c.Artifact + ", " + c.Row
			if prev, dup := seen[m.Unit]; dup {
				t.Errorf("unit %q reported by both %s and %s", m.Unit, prev, row)
			}
			seen[m.Unit] = row
		}
	}
	if len(seen) == 0 {
		t.Error("the ledger benchmarks nothing")
	}
}
