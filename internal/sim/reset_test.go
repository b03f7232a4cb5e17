package sim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/network"
	"repro/internal/types"
)

// resetStep is one configuration of resetChain, run for epochs whole
// epochs and then extra slots into the next.
type resetStep struct {
	name          string
	cfg           Config
	epochs, extra int
}

// resetChain walks configurations that leave a reset simulation as little
// alike as possible: validator counts up and down, one to four cohorts, a
// Byzantine cohort, an epoch length off the global 32-slot grid, held
// pre-GST traffic under link outages and shuffled duties, and folded trees.
// The extra slots stop a run mid-epoch, as a cancelled or failed cell
// leaves its simulation.
func resetChain() []resetStep {
	longEpoch := types.CompressedSpec(1 << 16)
	longEpoch.SlotsPerEpoch = 48
	return []resetStep{
		{"held-traffic", snapshotCfg(), 8, 7},
		{"compacted", compactedCfg(), 14, 3},
		{"byzantine-bridges", Config{
			Validators: 16, Spec: types.CompressedSpec(1 << 16), GST: 1 << 30, Delay: 1, Seed: 17,
			Byzantine: []types.ValidatorIndex{3, 12}, PartitionOf: halfSplit(16),
		}, 6, 31},
		{"wide-healthy", healthyConfig(40), 5, 1},
		{"four-partitions-drops", Config{
			Validators: 24, Spec: types.DefaultSpec(), Delay: 1, Seed: 7, DropRate: 0.2,
			PartitionOf: func(v types.ValidatorIndex) int { return int(v) % 4 },
		}, 6, 0},
		{"long-epoch", Config{
			Validators: 12, Spec: longEpoch, GST: network.Never, Delay: 1, Seed: 2, PartitionOf: halfSplit(12),
		}, 4, 5},
		{"held-traffic-again", snapshotCfg(), 8, 0},
	}
}

// TestResetMatchesNew is Reset's contract: a simulation that ran one
// configuration and was reset to another is the simulation New builds for
// the other — the same cohort layout, the same frame at genesis, the same
// per-epoch metrics and the same frame after the run — whatever the
// previous run left behind. One simulation per reference mode walks the
// whole chain, so each mode's views are reset in place at every step.
func TestResetMatchesNew(t *testing.T) {
	for _, mode := range ReferenceModes {
		t.Run(mode.Name, func(t *testing.T) {
			var recycled *Simulation
			for _, step := range resetChain() {
				cfg := mode.Config(step.cfg)
				fresh, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if recycled == nil {
					recycled, err = New(cfg)
				} else {
					err = recycled.Reset(cfg)
				}
				if err != nil {
					t.Fatalf("%s: %v", step.name, err)
				}
				checkSameState(t, step.name+" at genesis", fresh, recycled, !mode.MapForkChoice)
				want, got := runRecorded(t, fresh, step.epochs), runRecorded(t, recycled, step.epochs)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: the reset simulation's run diverged:\n  reset: %+v\n  new:   %+v", step.name, got, want)
				}
				checkSameState(t, step.name+" after the run", fresh, recycled, !mode.MapForkChoice)
				for range step.extra {
					if err := recycled.Step(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestResetAcrossEngineKinds: a simulation reset into a configuration on
// the other fork-choice engine builds its views anew on that engine instead
// of keeping the engine its old views ran.
func TestResetAcrossEngineKinds(t *testing.T) {
	cfg := snapshotCfg()
	for _, pair := range [][2]ReferenceMode{
		{ReferenceModes[0], ReferenceModes[1]},
		{ReferenceModes[1], ReferenceModes[0]},
	} {
		s, err := New(pair[0].Config(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunEpochs(3); err != nil {
			t.Fatal(err)
		}
		if err := s.Reset(pair[1].Config(cfg)); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(pair[1].Config(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reflect.TypeOf(s.Cohorts()[0].Node.Votes), reflect.TypeOf(fresh.Cohorts()[0].Node.Votes); got != want {
			t.Fatalf("%s reset into %s runs its views on %v, want %v", pair[0].Name, pair[1].Name, got, want)
		}
		if got, want := runRecorded(t, s, 8), runRecorded(t, fresh, 8); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s reset into %s diverged from New", pair[0].Name, pair[1].Name)
		}
	}
}

// checkSameState compares what two simulations hold: the cohort layout,
// the slot, and — where the views run the proto-array, which alone has a
// durable form — the snapshot frame.
func checkSameState(t *testing.T, at string, want, got *Simulation, frames bool) {
	t.Helper()
	type layout struct {
		Index, Partition int
		Byzantine        bool
		Members          []types.ValidatorIndex
	}
	layouts := func(s *Simulation) []layout {
		var out []layout
		for _, c := range s.Cohorts() {
			out = append(out, layout{c.Index, c.Partition, c.Byzantine, c.Members})
		}
		return out
	}
	if !reflect.DeepEqual(layouts(got), layouts(want)) || got.Slot() != want.Slot() {
		t.Fatalf("%s: cohorts %+v at slot %d, want %+v at slot %d", at, layouts(got), got.Slot(), layouts(want), want.Slot())
	}
	if frames && !bytes.Equal(encodeSnapshot(t, got.Snapshot()), encodeSnapshot(t, want.Snapshot())) {
		t.Fatalf("%s: the reset simulation's frame differs from New's", at)
	}
}
