package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/network"
	"repro/internal/sim"
)

// benchGrid is the acceptance workload: a sim/gst shared-prefix grid of 30
// cells at 10,000 validators — 15 horizons x 2 gst values. Neither gst
// heals within any horizon here, so every cell simulates the same
// partitioned prefix under one seed (gst is excluded from the prefix key
// and rate/gst from seed derivation, so the gst dimension shares both
// prefixes and seeds) — cold re-runs the prefix per cell, warm runs it
// once to the deepest horizon and reads all 30 cells off the spine as it
// passes their 15 horizons (every cell is a stop: no snapshot is taken).
func benchGrid() []Cell {
	horizons := make([]int, 0, 15)
	for h := 8; h <= 22; h++ {
		horizons = append(horizons, h)
	}
	return Grid{
		Scenario: "sim/gst",
		P0:       []float64{0.5},
		GSTs:     []int{30, 40},
		Horizons: horizons,
		N:        10000,
	}.Cells()
}

// benchForkGrid is the fork path's workload: 8 sim/gst cells at 10,000
// validators in which every gst heals before every horizon, so each cell
// is a fork — the spine walks to epoch 17 once, and each of its four branch
// epochs hands two cells a copy of its state to finish the healed tail from.
func benchForkGrid() []Cell {
	return Grid{
		Scenario: "sim/gst",
		P0:       []float64{0.5},
		GSTs:     []int{8, 11, 14, 17},
		Horizons: []int{20, 22},
		N:        10000,
	}.Cells()
}

func benchSweep(b *testing.B, cells []Cell, warm *WarmStartOptions) []Result {
	b.Helper()
	var last []Result
	built := Spares().Built
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = SweepContext(context.Background(), cells, Options{
			Workers:   1,
			WarmStart: warm,
		})
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(last))/secs, "cells/sec")
	}
	b.ReportMetric(float64(Spares().Built-built)/float64(b.N), "built-sims/sweep")
	for i, r := range last {
		if r.Err != "" {
			b.Fatalf("cell %d failed: %s", i, r.Err)
		}
	}
	return last
}

// benchWarmVsCold sweeps the grid cold and warm and asserts the two
// bit-identical — a speedup is only admissible because the results are the
// same.
func benchWarmVsCold(b *testing.B, cells []Cell) {
	var cold, warm []Result
	b.Run("cold", func(b *testing.B) {
		cold = benchSweep(b, cells, nil)
	})
	b.Run("warm", func(b *testing.B) {
		warm = benchSweep(b, cells, &WarmStartOptions{})
	})
	if cold != nil && warm != nil {
		for i := range cold {
			if !reflect.DeepEqual(cold[i].WithoutMeta(), warm[i].WithoutMeta()) {
				b.Fatalf("cell %d: warm result diverges from cold", i)
			}
		}
	}
}

// BenchmarkSweepWarmStart measures the tentpole's payoff: cold sweeps the
// grid cell by cell, warm finishes the cells from the shared prefix tree.
// Workers is pinned to 1 on both sides so the ratio isolates the epochs
// saved rather than scheduling luck; CI gates warm >= 5x cold cells/sec,
// warm <= 0.5x cold B/op, and cold B/op itself, which counts the
// per-validator state of every genesis start that finds no spare
// simulation to reset (cmd/benchgate/gates.json).
func BenchmarkSweepWarmStart(b *testing.B) {
	benchWarmVsCold(b, benchGrid())
}

// BenchmarkSweepWarmStartForks is the same comparison on a grid where every
// cell forks: warm pays one fork copy per cell (the spine's last fork takes
// the simulation itself) and the healed tails, cold the whole run per cell.
// CI gates the warm/cold cells/sec ratio and warm B/op (gates.json).
func BenchmarkSweepWarmStartForks(b *testing.B) {
	benchWarmVsCold(b, benchForkGrid())
}

// BenchmarkPartitionCell runs one sim/partition cell at its defaults, the
// cell behind every serve-mix /run miss: three block trees (the oracle and
// two partition views) grow from genesis to the violation at epoch 26. Each
// iteration is the row's cold run without its meta — advance from genesis,
// then finishSimPartition — so the bytes are the simulation's. It reports
// the blocks those trees hold at the end and the messages still queued in
// inboxes (a partition that never heals holds none of the other side's
// traffic); CI gates both counts, B/op and allocs/op (gates.json). Per
// epoch of the last cell, it also reports the work counters of sim.Stats:
// validator rows swept by the views' window tallies, full stake sums and
// duty-bucket builds, which gates.json bounds as well, and per cell the
// epochs stepped lane by lane: none, as a 16-validator population is below
// the size from which lanes pay.
func BenchmarkPartitionCell(b *testing.B) {
	sc, _ := Default.Lookup(ScenarioSimPartition)
	row, p, ctx := sc.(*simScenario), sc.Defaults(), context.Background()
	var res Result
	var s *sim.Simulation
	for i := 0; i < b.N; i++ {
		var tr simTrace
		var err error
		if s, tr, _, err = row.advance(ctx, p, nil, p.Horizon, false); err == nil {
			res, err = finishSimPartition(ctx, p, s, tr)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.Metrics[0].Name != "violation_epoch" || res.Metrics[0].Value != 26 {
		b.Fatalf("metrics %v, want violation_epoch 26", res.Metrics)
	}
	st := s.Stats()
	b.ReportMetric(float64(st.Tree.Nodes+st.Oracle.Nodes), "tree-nodes/cell")
	held := 0
	for _, c := range s.Cohorts() {
		held += s.Net.PendingFor(network.NodeID(c.Index))
	}
	b.ReportMetric(float64(held), "held-msgs/cell")
	epochs := float64(uint64(s.Slot()) / s.Cfg.Spec.SlotsPerEpoch)
	b.ReportMetric(float64(st.Work.TallyRows)/epochs, "tally-rows/epoch")
	b.ReportMetric(float64(st.Work.StakeSums)/epochs, "stake-sums/epoch")
	b.ReportMetric(float64(st.BucketRebuilds)/epochs, "bucket-builds/epoch")
	b.ReportMetric(float64(st.LaneEpochs), "lane-epochs/cell")
}
