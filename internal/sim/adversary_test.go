package sim_test

import (
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
			return &behavior.SemiActive{Reps: [2]types.ValidatorIndex{0, 12}, StayFrom: 22}
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
