package sim_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/behavior"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/types"
)

// laneCell is one run the lane differential test steps both lane by lane
// and as one lane.
type laneCell struct {
	name   string
	cfg    sim.Config
	epochs int
	// rebase, if set, runs at the boundary ending epoch rebaseAt and returns
	// the simulation the run continues on: the warm-start path, where a
	// prefix run unhealed under network.FarFuture is handed to a cell with
	// its own heal slot.
	rebaseAt int
	rebase   func(t *testing.T, s *sim.Simulation) *sim.Simulation
	// adversary, if set, builds each run's adversary.
	adversary func() sim.Adversary
	// hook installs an OnEpoch hook, which wants every view at the boundary.
	hook bool
	// laned says whether lanes apply to some epoch of the run.
	laned bool
}

// split is the two-way partition of a population at nA.
func split(nA int) func(types.ValidatorIndex) int {
	return func(v types.ValidatorIndex) int { return min(int(v)/nA, 1) }
}

// healAt is a rebase onto a heal at the given epoch: SetGST on the running
// simulation, or (restore) a Restore of its snapshot into a simulation
// configured with that heal.
func healAt(epoch int, restore bool) func(*testing.T, *sim.Simulation) *sim.Simulation {
	gst := types.Slot(epoch * types.SlotsPerEpoch)
	return func(t *testing.T, s *sim.Simulation) *sim.Simulation {
		if !restore {
			s.SetGST(gst)
			return s
		}
		cfg := s.Cfg
		cfg.GST = gst
		r, err := sim.New(cfg)
		if err == nil {
			err = r.Restore(s.Snapshot())
		}
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

// laneCells mirror the engine's simRows populations at small sizes (the
// engine's own rows run in its TestSimRowsLaneIndependent), and add the
// paths lanes must also keep: compaction of the views and the oracle, a
// heal inside the horizon, the warm-start
// rebase by SetGST and by Restore, lossy links before the heal across three
// partitions, shuffled duties, a delay over one slot (embargoes that
// overlap), the singleton-cohort reference and silent Byzantine validators,
// who hold no view; and the populations lanes leave alone: an adversary, an
// OnEpoch hook.
func laneCells() []laneCell {
	compressed := types.CompressedSpec(1 << 16)
	byz := []types.ValidatorIndex{24, 25, 26, 27, 28, 29, 30, 31}
	return []laneCell{
		{name: "sim/leak", cfg: sim.Config{
			Validators: 48, Spec: types.DefaultSpec(), GST: network.Never, Delay: 1, Seed: 1, PartitionOf: split(24),
		}, epochs: 12, laned: true},
		{name: "sim/leak compacting", cfg: sim.Config{
			Validators: 32, Spec: compressed, GST: network.Never, Delay: 1, Seed: 2, PartitionOf: split(16), CompactWatermark: 48,
		}, epochs: 24, laned: true},
		{name: "sim/partition", cfg: sim.Config{
			Validators: 16, Spec: compressed, GST: network.Never, Delay: 1, Seed: 3, PartitionOf: split(8),
		}, epochs: 28, laned: true},
		{name: "sim/gst heal inside the horizon", cfg: sim.Config{
			Validators: 32, Spec: compressed, GST: 6 * 32, Delay: 1, Seed: 3, PartitionOf: split(16),
		}, epochs: 12, laned: true},
		{name: "sim/drops", cfg: sim.Config{
			Validators: 64, Spec: types.DefaultSpec(), Delay: 1, Seed: 1, DropRate: 0.2,
			PartitionOf: func(v types.ValidatorIndex) int { return int(v) % 8 },
		}, epochs: 6},
		{name: "drops before the heal, three partitions", cfg: sim.Config{
			Validators: 48, Spec: compressed, GST: 8 * 32, Delay: 1, Seed: 5, DropRate: 0.3,
			PartitionOf: func(v types.ValidatorIndex) int { return int(v) % 3 },
		}, epochs: 12, laned: true},
		{name: "sim/semiactive", cfg: sim.Config{
			Validators: 32, Spec: compressed, GST: network.Never, Delay: 1, Seed: 13, Byzantine: byz, PartitionOf: split(12),
		}, epochs: 12, adversary: func() sim.Adversary {
			return &behavior.SemiActive{Reps: [2]types.ValidatorIndex{0, 12}, AutoFinalize: true}
		}},
		{name: "sim/bounce", cfg: bouncerConfig(nil), epochs: 12, adversary: func() sim.Adversary { return newBouncer() }},
		{name: "silent byzantine validators", cfg: sim.Config{
			Validators: 32, Spec: compressed, GST: network.Never, Delay: 1, Seed: 13, Byzantine: byz, PartitionOf: split(12),
		}, epochs: 8, laned: true},
		{name: "shuffled duties", cfg: sim.Config{
			Validators: 48, Spec: compressed, GST: network.Never, Delay: 1, Seed: 9, ShuffledDuties: true, PartitionOf: split(20),
		}, epochs: 10, laned: true},
		{name: "delay over one slot", cfg: sim.Config{
			Validators: 40, Spec: compressed, GST: 9 * 32, Delay: 3, Seed: 4, PartitionOf: split(20),
		}, epochs: 12, laned: true},
		{name: "singleton cohorts", cfg: sim.ReferenceMode{PerValidator: true}.Config(sim.Config{
			Validators: 24, Spec: compressed, GST: 7 * 32, Delay: 1, Seed: 6,
			PartitionOf: func(v types.ValidatorIndex) int { return int(v) % 2 },
		}), epochs: 10, laned: true},
		{name: "an OnEpoch hook", cfg: sim.Config{
			Validators: 48, Spec: types.DefaultSpec(), GST: network.Never, Delay: 1, Seed: 1, PartitionOf: split(24),
		}, epochs: 8, hook: true},
		{name: "warm start by SetGST", cfg: sim.Config{
			Validators: 32, Spec: compressed, GST: network.FarFuture, Delay: 1, Seed: 3, PartitionOf: split(16),
		}, epochs: 12, rebaseAt: 5, rebase: healAt(7, false), laned: true},
		{name: "warm start by Restore", cfg: sim.Config{
			Validators: 32, Spec: compressed, GST: network.FarFuture, Delay: 1, Seed: 3, PartitionOf: split(16),
		}, epochs: 12, rebaseAt: 5, rebase: healAt(7, true), laned: true},
	}
}

// laneTrace is what a run shows: its snapshot frame and its metrics at
// every epoch boundary, its network counters and its work counters.
type laneTrace struct {
	frames         [][]byte
	history        []sim.EpochMetrics
	sent, dropped  int
	laneEpochs     int
	bucketRebuilds int
}

// runLanes steps the cell epoch by epoch, lane by lane wherever lanes apply
// (lanes) or as one lane.
func runLanes(t *testing.T, c laneCell, lanes bool) laneTrace {
	t.Helper()
	cfg := sim.WithLanes(c.cfg, lanes)
	if c.hook {
		cfg.OnEpoch = new(sim.Recorder).Hook
	}
	if c.adversary != nil {
		cfg.Adversary = c.adversary()
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tr laneTrace
	for e := 1; e <= c.epochs; e++ {
		if c.rebase != nil && e == c.rebaseAt+1 {
			s = c.rebase(t, s)
		}
		if err := s.RunEpochs(1); err != nil {
			t.Fatal(err)
		}
		var frame bytes.Buffer
		if _, err := s.Snapshot().WriteTo(&frame); err != nil {
			t.Fatal(err)
		}
		tr.frames = append(tr.frames, frame.Bytes())
		tr.history = append(tr.history, s.MetricsAt(s.Slot().Epoch()))
	}
	tr.sent, tr.dropped = s.Net.Stats()
	st := s.Stats()
	tr.laneEpochs, tr.bucketRebuilds = st.LaneEpochs, st.BucketRebuilds
	return tr
}

// TestLanesMatchOneLane: a run stepped lane by lane, a lane per honest
// partition on its own goroutine, is byte for byte the run stepped as one
// lane — the snapshot frame at every epoch boundary (views, held traffic in
// its order, embargoes, the audit oracle), the metrics history and the
// network's counters — on every cell of laneCells, and lanes step some
// epoch exactly where they apply. Under GOMAXPROCS(1) no epoch takes lanes
// and the bytes are the same again.
func TestLanesMatchOneLane(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range laneCells() {
		t.Run(c.name, func(t *testing.T) {
			one := runLanes(t, c, false)
			laned := runLanes(t, c, true)
			runtime.GOMAXPROCS(1)
			single := runLanes(t, c, true)
			runtime.GOMAXPROCS(2)
			if one.laneEpochs != 0 || single.laneEpochs != 0 {
				t.Fatalf("one lane stepped %d epochs with lanes, GOMAXPROCS(1) %d; want 0", one.laneEpochs, single.laneEpochs)
			}
			if (laned.laneEpochs > 0) != c.laned {
				t.Fatalf("%d epochs stepped with lanes; want lanes: %v", laned.laneEpochs, c.laned)
			}
			for name, got := range map[string]laneTrace{"lanes": laned, "GOMAXPROCS(1)": single} {
				for e := range one.frames {
					if !bytes.Equal(got.frames[e], one.frames[e]) {
						t.Fatalf("%s: the frame at the end of epoch %d differs from one lane's (%d and %d bytes)", name, e+1, len(got.frames[e]), len(one.frames[e]))
					}
				}
				if !reflect.DeepEqual(got.history, one.history) {
					t.Fatalf("%s: metrics history differs:\n  got  %+v\n  want %+v", name, got.history, one.history)
				}
				if got.sent != one.sent || got.dropped != one.dropped || got.bucketRebuilds != one.bucketRebuilds {
					t.Fatalf("%s: sent %d, dropped %d, bucket builds %d; one lane %d, %d, %d", name,
						got.sent, got.dropped, got.bucketRebuilds, one.sent, one.dropped, one.bucketRebuilds)
				}
			}
			t.Logf("%d of %d epochs stepped with lanes", laned.laneEpochs, c.epochs)
		})
	}
}
