package sim_test

import (
	"bytes"
	"testing"

	"repro/internal/behavior"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestLiveFrameIsSnapshotFrame: a simulation's own frame (WriteTo) is its
// snapshot's (Snapshot().WriteTo), byte for byte, at every slot of runs
// that hold each kind of state a frame carries, and writing it moves no
// state: a second write gives the same bytes. Each run must reach the
// state it names at some slot, or it pins nothing.
func TestLiveFrameIsSnapshotFrame(t *testing.T) {
	compressed := types.CompressedSpec(1 << 16)
	byz := []types.ValidatorIndex{24, 25, 26, 27, 28, 29, 30, 31}
	pending := func(s *sim.Simulation) bool {
		for endpoint := range s.Cohorts() {
			if s.Net.PendingFor(network.NodeID(endpoint)) > 0 {
				return true
			}
		}
		return false
	}
	for _, c := range []struct {
		name      string
		cfg       sim.Config
		adversary func() sim.Adversary
		epochs    int
		// reached says whether the run holds the state the case names.
		reached func(s *sim.Simulation) bool
	}{
		{name: "far-future prefix holding cross-partition traffic", cfg: sim.Config{
			Validators: 32, Spec: compressed, GST: network.FarFuture, Delay: 1, Seed: 3, PartitionOf: split(16),
		}, epochs: 6, reached: pending},
		{name: "delay-3 embargoes in both cohorts", cfg: sim.Config{
			Validators: 40, Spec: compressed, GST: 9 * 32, Delay: 3, Seed: 4, PartitionOf: split(20),
		}, epochs: 6, reached: func(s *sim.Simulation) bool { return len(sim.EmbargoedCohorts(s)) == 2 }},
		{name: "compacted tree", cfg: sim.Config{
			Validators: 32, Spec: compressed, GST: network.Never, Delay: 1, Seed: 2, PartitionOf: split(16), CompactWatermark: 48,
		}, epochs: 24, reached: func(s *sim.Simulation) bool { return s.Stats().Tree.Folded > 0 }},
		{name: "semi-active mid-gait", cfg: sim.Config{
			Validators: 32, Spec: compressed, GST: network.Never, Delay: 1, Seed: 13, Byzantine: byz, PartitionOf: split(12),
		}, epochs: 10, adversary: func() sim.Adversary {
			return &behavior.SemiActive{Reps: [2]types.ValidatorIndex{0, 12}, AutoFinalize: true}
		}},
		{name: "bouncer mid-gait", cfg: bouncerConfig(nil), epochs: 7, adversary: func() sim.Adversary { return newBouncer() }},
		{name: "singleton cohorts", cfg: sim.ReferenceMode{PerValidator: true}.Config(sim.Config{
			Validators: 24, Spec: compressed, GST: 7 * 32, Delay: 1, Seed: 6,
			PartitionOf: func(v types.ValidatorIndex) int { return int(v) % 2 },
		}), epochs: 4, reached: func(s *sim.Simulation) bool { return len(s.Cohorts()) == 24 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			if c.adversary != nil {
				cfg.Adversary = c.adversary()
			}
			s, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			seen := c.reached == nil
			for slot := 0; slot < c.epochs*int(cfg.Spec.SlotsPerEpoch); slot++ {
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
				var live, again, snap bytes.Buffer
				if _, err := s.WriteTo(&live); err != nil {
					t.Fatal(err)
				}
				if _, err := s.WriteTo(&again); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Snapshot().WriteTo(&snap); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(live.Bytes(), snap.Bytes()) {
					t.Fatalf("slot %d: the live frame (%d bytes) differs from the snapshot's (%d bytes)", s.Slot(), live.Len(), snap.Len())
				}
				if !bytes.Equal(again.Bytes(), live.Bytes()) {
					t.Fatalf("slot %d: a second write of the live frame differs from the first", s.Slot())
				}
				seen = seen || c.reached(s)
			}
			if !seen {
				t.Fatal("the run never reached the state the case names")
			}
		})
	}
}
