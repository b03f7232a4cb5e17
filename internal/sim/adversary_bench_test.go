package sim_test

import (
	"testing"

	"repro/internal/behavior"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/types"
)

// BenchmarkAdversarySnapshot copies a 32-validator sim/semiactive run ten
// epochs in, the copy a warm sim/semiactive fork pays: "snapshot" takes a
// Snapshot, "restore" restores one into the simulation. The adversary's
// 16 bytes of gait state ride in both through coder storage the simulation
// keeps, not a codec.Coder (and its 4 KiB chunk) built per copy; CI gates
// the B/op of each (gates.json).
func BenchmarkAdversarySnapshot(b *testing.B) {
	s, err := sim.New(sim.Config{
		Validators: 32, Spec: types.CompressedSpec(1 << 16), GST: network.Never, Delay: 1, Seed: 13,
		Byzantine:   []types.ValidatorIndex{24, 25, 26, 27, 28, 29, 30, 31},
		PartitionOf: split(12),
		Adversary:   &behavior.SemiActive{Reps: [2]types.ValidatorIndex{0, 12}, AutoFinalize: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.RunEpochs(10); err != nil {
		b.Fatal(err)
	}
	sn := s.Snapshot()
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			sn = s.Snapshot()
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if err := s.Restore(sn); err != nil {
				b.Fatal(err)
			}
		}
	})
}
