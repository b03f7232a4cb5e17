package sim_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/behavior"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestAdversaryCohortOracleEquivalence extends the kernel's equivalence
// contract to adversarial runs, across BOTH reference axes: the batched
// cohort adversaries produce bit-identical EpochMetrics histories in the
// default view-cohort mode and the per-validator reference mode, and on
// both the proto-array fork-choice engine and the map-based reference
// engine. The run is internal/behavior's standard two-branch attack:
// honest validators 0..23 split 12/12 across partitions, Byzantine
// validators 24..31 (beta0 = 0.25), compressed spec.
func TestAdversaryCohortOracleEquivalence(t *testing.T) {
	build := map[string]func() sim.Adversary{
		"double-voter": func() sim.Adversary { return &behavior.DoubleVoter{Reps: [2]types.ValidatorIndex{0, 12}} },
		"semi-active":  func() sim.Adversary { return &behavior.SemiActive{Reps: [2]types.ValidatorIndex{0, 12}} },
		"semi-active finalizing": func() sim.Adversary {
			return &behavior.SemiActive{Reps: [2]types.ValidatorIndex{0, 12}, AutoFinalize: true}
		},
	}
	modes := sim.ReferenceModes
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			histories := make([][]sim.EpochMetrics, len(modes))
			for i, mode := range modes {
				rec := &sim.Recorder{}
				s, err := sim.New(mode.Config(sim.Config{
					Validators: 32,
					Spec:       types.CompressedSpec(1 << 16),
					GST:        1 << 30,
					Delay:      1,
					Seed:       13,
					Byzantine:  []types.ValidatorIndex{24, 25, 26, 27, 28, 29, 30, 31},
					PartitionOf: func(v types.ValidatorIndex) int {
						if v < 12 {
							return 0
						}
						return 1
					},
					Adversary: mk(),
					OnEpoch:   rec.Hook,
				}))
				if err != nil {
					t.Fatal(err)
				}
				if err := s.RunEpochs(26); err != nil {
					t.Fatal(err)
				}
				histories[i] = rec.History
			}
			for i := 1; i < len(modes); i++ {
				if reflect.DeepEqual(histories[0], histories[i]) {
					continue
				}
				for e := range histories[0] {
					if !reflect.DeepEqual(histories[0][e], histories[i][e]) {
						t.Fatalf("epoch %d diverges:\n  %s: %+v\n  %s: %+v",
							histories[0][e].Epoch, modes[0].Name, histories[0][e], modes[i].Name, histories[i][e])
					}
				}
				t.Fatalf("%s and %s histories diverge in length", modes[0].Name, modes[i].Name)
			}
		})
	}
}

// bouncerConfig is internal/behavior's bouncing attack: honest validators
// 0..23 split 12/12 by a setup partition that heals at epoch 3, Byzantine
// validators 24..31, compressed spec.
func bouncerConfig(adv sim.Adversary) sim.Config {
	return sim.Config{
		Validators: 32,
		Spec:       types.CompressedSpec(1 << 16),
		GST:        3 * 32,
		Delay:      1,
		Seed:       19,
		Byzantine:  []types.ValidatorIndex{24, 25, 26, 27, 28, 29, 30, 31},
		PartitionOf: func(v types.ValidatorIndex) int {
			return min(int(v)/12, 1)
		},
		Adversary: adv,
	}
}

// newBouncer is the Bouncer of bouncerConfig's runs: it stops at epoch 16,
// so a run past it also shows finality recovering.
func newBouncer() *behavior.Bouncer {
	b := behavior.NewBouncer(0.6, 99, [2]types.ValidatorIndex{0, 12})
	b.Stop = 16
	return b
}

// continueRecorded steps s the given epochs and returns the metrics of each
// boundary it reaches.
func continueRecorded(t *testing.T, s *sim.Simulation, epochs int) []sim.EpochMetrics {
	t.Helper()
	var hist []sim.EpochMetrics
	for range epochs {
		if err := s.RunEpochs(1); err != nil {
			t.Fatal(err)
		}
		hist = append(hist, s.MetricsAt(s.Slot().Epoch()))
	}
	return hist
}

// bouncerMidAttack runs bouncerConfig seven epochs — four releases into the
// attack — and returns the simulation, its adversary and its snapshot's
// frame.
func bouncerMidAttack(t *testing.T) (*sim.Simulation, *behavior.Bouncer, []byte) {
	t.Helper()
	adv := newBouncer()
	s, err := sim.New(bouncerConfig(adv))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(7); err != nil {
		t.Fatal(err)
	}
	if adv.Releases == 0 || adv.Bounces == 0 {
		t.Fatalf("the attack has not engaged by epoch 7: %d releases, %d bounces", adv.Releases, adv.Bounces)
	}
	var frame bytes.Buffer
	if _, err := s.Snapshot().WriteTo(&frame); err != nil {
		t.Fatal(err)
	}
	return s, adv, frame.Bytes()
}

// TestBouncerResumesMidAttack: the Bouncer's state rides in the snapshot.
// A run snapshotted mid-attack and continued under a fresh NewBouncer —
// restored from the in-memory Snapshot, adopted from its frame (WriteTo,
// then ReadSnapshot), and loaded (Load) into a simulation another run used
// — matches the uninterrupted run past the adversary's stop: the same
// EpochMetrics history, Bounces and Releases.
func TestBouncerResumesMidAttack(t *testing.T) {
	const after = 14
	s, adv, frame := bouncerMidAttack(t)
	sn := s.Snapshot()
	want := continueRecorded(t, s, after)

	resumes := []struct {
		name string
		run  func(cfg sim.Config) (*sim.Simulation, error)
	}{
		{"snapshot", func(cfg sim.Config) (*sim.Simulation, error) {
			r, err := sim.New(cfg)
			if err != nil {
				return nil, err
			}
			return r, r.Restore(sn)
		}},
		{"frame", func(cfg sim.Config) (*sim.Simulation, error) {
			dec, err := sim.ReadSnapshot(bytes.NewReader(frame))
			if err != nil {
				return nil, err
			}
			r, err := sim.NewShell(cfg)
			if err != nil {
				return nil, err
			}
			return r, r.Adopt(dec)
		}},
		{"load-into-used", func(cfg sim.Config) (*sim.Simulation, error) {
			other := behavior.NewBouncer(0.3, 5, [2]types.ValidatorIndex{0, 20})
			used, err := sim.New(sim.Config{
				Validators: 48, Spec: types.CompressedSpec(1 << 16), GST: 2 * 32, Delay: 1, Seed: 3,
				Byzantine:   []types.ValidatorIndex{40, 41, 42, 43, 44, 45, 46, 47},
				PartitionOf: func(v types.ValidatorIndex) int { return min(int(v)/20, 1) },
				Adversary:   other,
			})
			if err != nil {
				return nil, err
			}
			if err := used.RunEpochs(9); err != nil {
				return nil, err
			}
			if other.Releases == 0 {
				t.Fatal("the used simulation's attack never engaged")
			}
			return used, used.Load(cfg, bytes.NewReader(frame))
		}},
	}
	for _, tc := range resumes {
		t.Run(tc.name, func(t *testing.T) {
			fresh := newBouncer()
			r, err := tc.run(bouncerConfig(fresh))
			if err != nil {
				t.Fatal(err)
			}
			if fresh.Releases == 0 {
				t.Fatal("the resumed Bouncer holds no state")
			}
			if got := continueRecorded(t, r, after); !reflect.DeepEqual(got, want) {
				t.Errorf("continuation diverged from the uninterrupted run:\n  resumed: %+v\n  live:    %+v", got, want)
			}
			if fresh.Bounces != adv.Bounces || fresh.Releases != adv.Releases {
				t.Errorf("resumed Bouncer counts %d bounces / %d releases, the uninterrupted one %d / %d",
					fresh.Bounces, fresh.Releases, adv.Bounces, adv.Releases)
			}
		})
	}
}

// TestRestoreRefusesForeignAdversaryState: Restore, Adopt and Load refuse
// adversary state the restoring simulation's adversary cannot take — state
// of another type, state under an adversary without a walk or without any
// adversary, and no state under one that walks — with ErrBadConfig; and a
// frame whose Bouncer claims more placement draws than one per honest
// validator per simulated epoch with ErrSnapshotCodec, before any draw is
// replayed.
func TestRestoreRefusesForeignAdversaryState(t *testing.T) {
	_, _, frame := bouncerMidAttack(t)
	plain, err := sim.New(bouncerConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.RunEpochs(7); err != nil {
		t.Fatal(err)
	}
	var plainFrame bytes.Buffer
	if _, err := plain.Snapshot().WriteTo(&plainFrame); err != nil {
		t.Fatal(err)
	}
	// The frame ends in the Bouncer's draw count and its two counters; 2^63
	// draws would take centuries to replay.
	hostile := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint64(hostile[len(hostile)-24:], 1<<63)
	sum := fnv.New64a()
	sum.Write(hostile[20:])
	binary.LittleEndian.PutUint64(hostile[12:20], sum.Sum64())

	for _, tc := range []struct {
		name  string
		frame []byte
		adv   sim.Adversary
		want  error
	}{
		{"bouncer-into-semi-active", frame, &behavior.SemiActive{Reps: [2]types.ValidatorIndex{0, 12}}, sim.ErrBadConfig},
		{"bouncer-into-double-voter", frame, &behavior.DoubleVoter{Reps: [2]types.ValidatorIndex{0, 12}}, sim.ErrBadConfig},
		{"bouncer-into-none", frame, nil, sim.ErrBadConfig},
		{"none-into-bouncer", plainFrame.Bytes(), newBouncer(), sim.ErrBadConfig},
		{"draws-past-the-run", hostile, newBouncer(), sim.ErrSnapshotCodec},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := bouncerConfig(tc.adv)
			ways := map[string]func() error{
				"restore": func() error {
					sn, err := sim.ReadSnapshot(bytes.NewReader(tc.frame))
					if err != nil {
						t.Fatal(err)
					}
					s, err := sim.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return s.Restore(sn)
				},
				"adopt": func() error {
					sn, err := sim.ReadSnapshot(bytes.NewReader(tc.frame))
					if err != nil {
						t.Fatal(err)
					}
					s, err := sim.NewShell(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return s.Adopt(sn)
				},
				"load": func() error { return new(sim.Simulation).Load(cfg, bytes.NewReader(tc.frame)) },
			}
			for way, run := range ways {
				if err := run(); !errors.Is(err, tc.want) {
					t.Errorf("%s: error %v, want %v", way, err, tc.want)
				}
			}
		})
	}
}
