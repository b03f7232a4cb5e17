package sim

import (
	"reflect"
	"testing"

	"repro/internal/network"
	"repro/internal/types"
)

// recordHistory runs cfg for the given number of epochs with a metrics
// recorder installed and returns the per-epoch history plus the epoch of
// the first detected safety violation (0 = none).
func recordHistory(t *testing.T, cfg Config, epochs int) ([]EpochMetrics, types.Epoch) {
	t.Helper()
	rec := &Recorder{}
	prev := cfg.OnEpoch
	cfg.OnEpoch = func(s *Simulation, e types.Epoch) {
		rec.Hook(s, e)
		if prev != nil {
			prev(s, e)
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var violation types.Epoch
	for e := 1; e <= epochs; e++ {
		if err := s.RunEpochs(1); err != nil {
			t.Fatal(err)
		}
		if violation == 0 {
			if v := s.CheckFinalitySafety(); v != nil {
				violation = types.Epoch(e)
			}
		}
	}
	return rec.History, violation
}

// TestCohortKernelMatchesPerValidatorOracle is the refactor's contract: the
// view-cohort kernel and the pre-refactor one-node-per-validator layout
// (ReferenceMode.PerValidator, retained as the oracle) produce bit-identical
// EpochMetrics histories — across partitions, link outages, shuffled
// duties, delays, and idle Byzantine bridges — because cohort members
// provably hold identical views.
func TestCohortKernelMatchesPerValidatorOracle(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		epochs int
	}{
		{
			name: "healthy synchronous",
			cfg: Config{
				Validators: 16, Spec: types.DefaultSpec(), Delay: 1, Seed: 1,
			},
			epochs: 8,
		},
		{
			name: "healthy delay 2",
			cfg: Config{
				Validators: 16, Spec: types.DefaultSpec(), Delay: 2, Seed: 5,
			},
			epochs: 8,
		},
		{
			name: "lasting 50/50 partition (compressed leak to conflict)",
			cfg: Config{
				Validators: 16, Spec: types.CompressedSpec(1 << 16),
				GST: 1 << 30, Delay: 1, Seed: 3, PartitionOf: halfSplit(16),
			},
			epochs: 30,
		},
		{
			name: "uneven three-way partition",
			cfg: Config{
				Validators: 18, Spec: types.CompressedSpec(1 << 16),
				GST: 1 << 30, Delay: 1, Seed: 11,
				PartitionOf: func(v types.ValidatorIndex) int {
					switch {
					case v < 9:
						return 0
					case v < 15:
						return 1
					default:
						return 2
					}
				},
			},
			epochs: 16,
		},
		{
			name: "partition heals at GST",
			cfg: Config{
				Validators: 16, Spec: types.CompressedSpec(1 << 16),
				GST: 8 * 32, Delay: 1, Seed: 3, PartitionOf: halfSplit(16),
			},
			epochs: 16,
		},
		{
			name: "link outages across four synchronous partitions",
			cfg: Config{
				Validators: 16, Spec: types.DefaultSpec(), Delay: 1, Seed: 7,
				DropRate:    0.2,
				PartitionOf: func(v types.ValidatorIndex) int { return int(v) % 4 },
			},
			epochs: 10,
		},
		{
			name: "partition with drops and shuffled duties",
			cfg: Config{
				Validators: 16, Spec: types.CompressedSpec(1 << 16),
				GST: 1 << 30, Delay: 1, Seed: 13, DropRate: 0.15,
				ShuffledDuties: true, PartitionOf: halfSplit(16),
			},
			epochs: 24,
		},
		{
			name: "shuffled duties healthy",
			cfg: Config{
				Validators: 24, Spec: types.DefaultSpec(), Delay: 1, Seed: 9,
				ShuffledDuties: true,
			},
			epochs: 8,
		},
		{
			// A never-healing partition with an aggressive watermark: the
			// compaction gates (no adversary, lossless links, GST = Never)
			// all pass, so trees fold every epoch past the retention window
			// in all four view/engine modes.
			name: "lasting partition with aggressive spine compaction",
			cfg: Config{
				Validators: 16, Spec: types.CompressedSpec(1 << 16),
				GST: network.Never, Delay: 1, Seed: 3,
				PartitionOf: halfSplit(16), CompactWatermark: 32,
			},
			epochs: 30,
		},
		{
			name: "idle byzantine bridges during partition",
			cfg: Config{
				Validators: 16, Spec: types.CompressedSpec(1 << 16),
				GST: 1 << 30, Delay: 1, Seed: 17,
				Byzantine:   []types.ValidatorIndex{3, 12},
				PartitionOf: halfSplit(16),
			},
			epochs: 16,
		},
	}

	// Both reference axes are exercised: view layout (cohort vs singleton
	// per-validator) and fork-choice engine (incremental proto-array vs
	// map-based recompute oracle). All four combinations must produce the
	// same bit-identical history.
	modes := ReferenceModes
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantViolation := recordHistory(t, modes[0].Config(tc.cfg), tc.epochs)

			for _, mode := range modes[1:] {
				got, gotViolation := recordHistory(t, mode.Config(tc.cfg), tc.epochs)

				if len(got) != len(want) {
					t.Fatalf("history lengths differ: %s %d, %s %d", mode.Name, len(got), modes[0].Name, len(want))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("epoch %d metrics diverge:\n  %s: %+v\n  %s: %+v",
							want[i].Epoch, mode.Name, got[i], modes[0].Name, want[i])
					}
				}
				if gotViolation != wantViolation {
					t.Fatalf("safety violation epoch: %s %d, %s %d", mode.Name, gotViolation, modes[0].Name, wantViolation)
				}
			}
		})
	}
}

// TestCohortKernelSharesViews pins the memory shape the refactor is for:
// at any honest population in one partition, the kernel materializes
// exactly one view (plus one per extra partition and one Byzantine),
// regardless of validator count.
func TestCohortKernelSharesViews(t *testing.T) {
	cfg := healthyConfig(512)
	cfg.Byzantine = []types.ValidatorIndex{510, 511}
	cfg.PartitionOf = halfSplit(512)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Cohorts()); got != 3 {
		t.Fatalf("512 validators materialized %d views, want 3", got)
	}
	if err := s.RunEpochs(2); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionDoesNotChangeHistory is the tentpole's equivalence bar at
// the simulation layer: spine compaction is a pure space optimization —
// running the paper's lasting-partition leak with an aggressive watermark
// produces the bit-identical per-epoch history and safety-violation epoch
// as the same run with compaction disabled.
func TestCompactionDoesNotChangeHistory(t *testing.T) {
	base := Config{
		Validators: 16, Spec: types.CompressedSpec(1 << 16),
		GST: network.Never, Delay: 1, Seed: 3, PartitionOf: halfSplit(16),
	}
	const epochs = 30

	off := base
	off.CompactWatermark = -1
	want, wantViolation := recordHistory(t, off, epochs)
	if wantViolation == 0 {
		t.Fatal("reference run never violated finality safety; the scenario lost its teeth")
	}

	on := base
	on.CompactWatermark = 32
	got, gotViolation := recordHistory(t, on, epochs)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("epoch %d metrics diverge under compaction:\n  compacted:  %+v\n  uncompacted: %+v",
				want[i].Epoch, got[i], want[i])
		}
	}
	if gotViolation != wantViolation {
		t.Fatalf("violation epoch: compacted %d, uncompacted %d", gotViolation, wantViolation)
	}

	// And the optimization actually engaged: the compacted run's trees
	// must have folded blocks, otherwise this test pins nothing.
	s, err := New(on)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(epochs); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Tree.Folded == 0 {
		t.Fatalf("compaction never fired (stats %+v); gates or watermark are wrong", st)
	}
}

// TestSnapshotRestoreReplaysCompactedRun: Restore(Snapshot()) taken from a
// mid-leak, already-compacted simulation replays the continuation
// bit-identically — skip segments, fold counters, and engine columns all
// survive the deep copy.
func TestSnapshotRestoreReplaysCompactedRun(t *testing.T) {
	cfg := Config{
		Validators: 16, Spec: types.CompressedSpec(1 << 16),
		GST: network.Never, Delay: 1, Seed: 3,
		PartitionOf: halfSplit(16), CompactWatermark: 32,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(15); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Tree.Folded == 0 {
		t.Fatalf("run not compacted at snapshot point (stats %+v)", st)
	}
	sn := s.Snapshot()

	run := func() []EpochMetrics {
		rec := &Recorder{}
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.Cfg.OnEpoch = rec.Hook
		if err := r.Restore(sn); err != nil {
			t.Fatal(err)
		}
		if err := r.RunEpochs(15); err != nil {
			t.Fatal(err)
		}
		return rec.History
	}
	want := run()
	got := run()
	if len(want) == 0 {
		t.Fatal("no epochs recorded after restore")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("two restores of the same compacted snapshot diverge")
	}
	// The original keeps running independently of its snapshot's clones.
	if err := s.RunEpochs(15); err != nil {
		t.Fatal(err)
	}
}
