package sim

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/types"
	"repro/internal/validator"
)

// benchmarkSimEpoch measures the cost of one healthy-network protocol
// epoch under the given configuration (one warm-up epoch excluded), and
// reports its work counters.
func benchmarkSimEpoch(b *testing.B, cfg Config) {
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.RunEpochs(1); err != nil {
		b.Fatal(err)
	}
	before := s.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunEpochs(1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportWork(b, before, s.Stats(), b.N)
}

// BenchmarkSimEpoch is the kernel's hot-path record. The view-cohort
// kernel runs 10,000 (and 100,000) validators per epoch at or below the
// per-epoch wall-clock the pre-refactor one-node-per-validator layout
// (the oracle sub-benchmark) needs for 200 — the >= 50x capacity jump the
// refactor is for.
func BenchmarkSimEpoch(b *testing.B) {
	b.Run("cohort-10000", func(b *testing.B) {
		benchmarkSimEpoch(b, healthyConfig(10000))
	})
	b.Run("cohort-100000", func(b *testing.B) {
		benchmarkSimEpoch(b, healthyConfig(100000))
	})
	b.Run("cohort-partitioned-20000", func(b *testing.B) {
		benchmarkSimEpoch(b, Config{
			Validators: 20000, Spec: types.CompressedSpec(1 << 16),
			GST: 1 << 30, Delay: 1, Seed: 3, PartitionOf: halfSplit(20000),
		})
	})
	b.Run("per-validator-oracle-200", func(b *testing.B) {
		benchmarkSimEpoch(b, ReferenceMode{PerValidator: true}.Config(healthyConfig(200)))
	})
}

// longHorizonConfig is the paper-horizon workload: the Table 1 Scenario
// 5.1 simulation — 10,000 validators, FULL spec (2^26 penalty quotient),
// lasting 50/50 partition that never heals.
func longHorizonConfig() Config {
	return Config{
		Validators: 10000, Spec: types.DefaultSpec(),
		GST: network.Never, Delay: 1, Seed: 1, PartitionOf: halfSplit(10000),
	}
}

// longHorizonDepths are the leak depths (epochs into the run) at which
// BenchmarkSimLongHorizon measures sustained throughput. Before spine
// compaction the deeper variants decayed with tree size; with it they
// must stay within 20% of depth-100 (CI gates the ratio).
var longHorizonDepths = [...]int{100, 2000, 4000}

// longHorizonWarmup is the untimed run a depth variant gives its restored
// simulation before the timer starts: long enough for every view's tree to
// compact once (a partition's view adds ~16 blocks an epoch towards the
// 1024-node watermark), so the timed epochs measure the steady state and
// not the restored copy's first growth.
const longHorizonWarmup = 64

// longHorizon lazily runs ONE simulation forward through the leak,
// snapshotting at each measurement depth, so the three depth variants
// fast-forward via Restore instead of each paying the full prefix.
var longHorizon struct {
	once  sync.Once
	err   error
	snaps map[int]*Snapshot
}

func longHorizonSnapshotAt(b *testing.B, depth int) *Snapshot {
	longHorizon.once.Do(func() {
		s, err := New(longHorizonConfig())
		if err != nil {
			longHorizon.err = err
			return
		}
		longHorizon.snaps = make(map[int]*Snapshot, len(longHorizonDepths))
		cur := 0
		for _, d := range longHorizonDepths {
			if err := s.RunEpochs(d - cur); err != nil {
				longHorizon.err = err
				return
			}
			cur = d
			longHorizon.snaps[d] = s.Snapshot()
		}
	})
	if longHorizon.err != nil {
		b.Fatal(longHorizon.err)
	}
	return longHorizon.snaps[depth]
}

// BenchmarkSimLongHorizon tracks the sustained epochs/sec of the Table 1
// Scenario 5.1 run — the quantity that bounds sim/leak's ~4,660-epoch
// wall clock (BENCH.md tracks the trajectory). depth-6 measures just
// after the leak starts; the depth-100/2000/4000 variants measure the
// SAME run thousands of epochs in, where pre-compaction cost grew with
// tree depth. With spine compaction plus the frontier-bounded settle the
// trajectory is flat: depth-4000 must hold >= 0.8x depth-100 (CI-gated).
// Run with -benchmem, depth-100's B/op is a steady-state epoch's garbage,
// also CI-gated. With two or more processors every epoch steps its two
// partitions' lanes at once (lane-epochs/epoch = 1, CI-gated).
func BenchmarkSimLongHorizon(b *testing.B) {
	b.Run("depth-6", func(b *testing.B) {
		s, err := New(longHorizonConfig())
		if err != nil {
			b.Fatal(err)
		}
		// Enter the leak (finality stalls after MinEpochsToInactivityLeak).
		if err := s.RunEpochs(6); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.RunEpochs(1); err != nil {
				b.Fatal(err)
			}
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "epochs/sec")
		}
	})
	for _, depth := range longHorizonDepths {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			sn := longHorizonSnapshotAt(b, depth)
			s, err := New(longHorizonConfig())
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Restore(sn); err != nil {
				b.Fatal(err)
			}
			if err := s.RunEpochs(longHorizonWarmup); err != nil {
				b.Fatal(err)
			}
			before := s.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.RunEpochs(1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "epochs/sec")
			}
			reportWork(b, before, s.Stats(), b.N)
		})
	}
}

// reportWork reports the work counters a run of epochs moved from before
// to after, per epoch: the validator rows the views' FFG window tallies
// swept, the full sums of a view's in-set stake, the slots whose attesters
// were grouped into duty buckets afresh, and the epochs stepped with two or
// more lanes at once.
func reportWork(b *testing.B, before, after Stats, epochs int) {
	per := func(n int) float64 { return float64(n) / float64(epochs) }
	b.ReportMetric(per(after.Work.TallyRows-before.Work.TallyRows), "tally-rows/epoch")
	b.ReportMetric(per(after.Work.StakeSums-before.Work.StakeSums), "stake-sums/epoch")
	b.ReportMetric(per(after.BucketRebuilds-before.BucketRebuilds), "bucket-builds/epoch")
	b.ReportMetric(per(after.LaneEpochs-before.LaneEpochs), "lane-epochs/epoch")
}

// BenchmarkSnapshotWriteTo encodes the snapshot a durable checkpoint of a
// 2,500-validator sim/leak cell holds 50 epochs in (the checkpoint the
// bench harness's reuse-tiers workload saves and resumes) as a frame.
// "discard" writes into io.Discard, so what it allocates is the encoders'
// own; "buffer" writes into a fresh bytes.Buffer per frame, as a checkpoint
// save does, which WriteTo grows to the frame's length once.
func BenchmarkSnapshotWriteTo(b *testing.B) {
	s, err := New(Config{
		Validators: 2500, Spec: types.DefaultSpec(),
		GST: network.Never, Delay: 1, Seed: 1, PartitionOf: halfSplit(2500),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.RunEpochs(50); err != nil {
		b.Fatal(err)
	}
	sn := s.Snapshot()
	for _, tc := range []struct {
		name string
		dst  func() io.Writer
	}{
		{"discard", func() io.Writer { return io.Discard }},
		{"buffer", func() io.Writer { return new(bytes.Buffer) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var n int64
			for i := 0; i < b.N; i++ {
				if n, err = sn.WriteTo(tc.dst()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n), "frame-B")
		})
	}
}

// BenchmarkReadSnapshot decodes the frame BenchmarkSnapshotWriteTo writes
// (a durable checkpoint of a 2,500-validator sim/leak cell 50 epochs in)
// from a *bytes.Reader, as a checkpoint resume reads it.
func BenchmarkReadSnapshot(b *testing.B) {
	s, err := New(Config{
		Validators: 2500, Spec: types.DefaultSpec(),
		GST: network.Never, Delay: 1, Seed: 1, PartitionOf: halfSplit(2500),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.RunEpochs(50); err != nil {
		b.Fatal(err)
	}
	var frame bytes.Buffer
	if _, err := s.Snapshot().WriteTo(&frame); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadSnapshot(bytes.NewReader(frame.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(frame.Len()), "frame-B")
}

// BenchmarkCohortRegistry measures the columnar registry at paper scale
// (1M validators): the Clone a justified-checkpoint snapshot costs, and a
// total-stake scan. Its epoch-boundary sweep is incentives'
// BenchmarkProcessColumn.
func BenchmarkCohortRegistry(b *testing.B) {
	const n = 1_000_000
	spec := types.DefaultSpec()
	b.Run("clone", func(b *testing.B) {
		reg := new(validator.Registry)
		reg.Reset(n, spec.MaxEffectiveBalance)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if reg.Clone().Len() != n {
				b.Fatal("clone lost validators")
			}
		}
	})
	b.Run("total-stake", func(b *testing.B) {
		reg := new(validator.Registry)
		reg.Reset(n, spec.MaxEffectiveBalance)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if reg.TotalStake() == 0 {
				b.Fatal("empty registry")
			}
		}
	})
}
