package sim

import (
	"reflect"
	"testing"

	"repro/internal/network"
	"repro/internal/types"
)

// snapshotCfg is a state-rich configuration: partitioned population under
// a compressed leak with link outages and shuffled duties, so a snapshot
// must carry diverging FFG state, in-flight (and retransmitted) messages,
// embargoes, and per-epoch duty shuffling to reproduce the run.
func snapshotCfg() Config {
	return Config{
		Validators: 16, Spec: types.CompressedSpec(1 << 16),
		GST: 1 << 30, Delay: 1, Seed: 13, DropRate: 0.15,
		ShuffledDuties: true, PartitionOf: halfSplit(16),
	}
}

// runRecorded advances the sim by `epochs` whole epochs, returning one
// EpochMetrics per boundary crossed.
func runRecorded(t testing.TB, s *Simulation, epochs int) []EpochMetrics {
	t.Helper()
	var hist []EpochMetrics
	start := s.Slot().Epoch()
	for e := 0; e < epochs; e++ {
		if err := s.RunEpochs(1); err != nil {
			t.Fatal(err)
		}
		hist = append(hist, s.MetricsAt(start+types.Epoch(e+1)))
	}
	return hist
}

// TestSnapshotRestoreDeterminism is the snapshot contract: Restore of a
// Snapshot taken at epoch k, then running to epoch n, yields EpochMetrics
// bit-identical to the uninterrupted run — across the 2×2 view-layout ×
// fork-choice-engine matrix.
func TestSnapshotRestoreDeterminism(t *testing.T) {
	const snapAt, total = 6, 20
	for _, mode := range ReferenceModes {
		t.Run(mode.Name, func(t *testing.T) {
			cfg := mode.Config(snapshotCfg())

			base, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			prefix := runRecorded(t, base, snapAt)
			snap := base.Snapshot()
			if got, want := snap.slot, types.Epoch(snapAt).StartSlot(); got != want {
				t.Fatalf("snapshot slot = %d, want %d", got, want)
			}
			suffix := runRecorded(t, base, total-snapAt)
			want := append(append([]EpochMetrics(nil), prefix...), suffix...)

			// An uninterrupted reference run.
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			uninterrupted := runRecorded(t, ref, total)
			if !reflect.DeepEqual(uninterrupted, want) {
				t.Fatalf("taking a snapshot perturbed the run:\n  with snapshot: %+v\n  without:       %+v", want, uninterrupted)
			}

			// Restore the mutated base back to epoch k and re-run: the
			// suffix must reproduce bit-identically, twice in a row (the
			// snapshot is not consumed by Restore).
			for round := 0; round < 2; round++ {
				if err := base.Restore(snap); err != nil {
					t.Fatal(err)
				}
				if got := base.Slot(); got != snap.slot {
					t.Fatalf("restored slot = %d, want %d", got, snap.slot)
				}
				replay := runRecorded(t, base, total-snapAt)
				if !reflect.DeepEqual(replay, suffix) {
					t.Fatalf("round %d: restored run diverged:\n  replay: %+v\n  want:   %+v", round, replay, suffix)
				}
			}
		})
	}
}

// TestSnapshotIsolation pins the fan-out property warm-started sweeps rely
// on: two continuations restored from one snapshot do not share mutable
// state — running one to conflict does not disturb the other.
func TestSnapshotIsolation(t *testing.T) {
	cfg := snapshotCfg()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(4); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	before := s.MetricsAt(4)

	// Continuation A: run far enough that the compressed leak finalizes
	// conflicting branches (mutating trees, registries, FFG state).
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(26); err != nil {
		t.Fatal(err)
	}
	if v := s.CheckFinalitySafety(); v == nil {
		t.Fatal("compressed 50/50 partition should have finalized conflicting branches by epoch 30")
	}

	// Continuation B: the snapshot must still describe epoch 4.
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := s.MetricsAt(4); !reflect.DeepEqual(got, before) {
		t.Fatalf("snapshot state mutated by a continuation: %+v != %+v", got, before)
	}
	if v := s.CheckFinalitySafety(); v != nil {
		t.Fatalf("restored epoch-4 state already reports a violation: %v", v)
	}
}

// TestRestoreRejectsMismatchedShape guards against restoring a snapshot
// into a simulation with a different validator set or cohort layout.
func TestRestoreRejectsMismatchedShape(t *testing.T) {
	a, err := New(snapshotCfg())
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(Config{Validators: 8, Spec: types.CompressedSpec(1 << 16), Delay: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(a.Snapshot()); err == nil {
		t.Fatal("Restore accepted a snapshot with a mismatched shape")
	}
}

// TestRestoreAcrossGST pins GST portability, the property that lets one
// shared prefix fan out across a gst sweep: a prefix simulated under
// GST = network.FarFuture (held cross-partition traffic retained),
// snapshotted before the heal, and restored into a simulation whose
// Config names the real heal slot reproduces the cold run with that GST
// bit-identically.
func TestRestoreAcrossGST(t *testing.T) {
	const snapAt, total = 3, 12
	realGST := types.Epoch(5).StartSlot()

	cold := snapshotCfg()
	cold.GST = realGST
	ref, err := New(cold)
	if err != nil {
		t.Fatal(err)
	}
	want := runRecorded(t, ref, total)

	prefixCfg := cold
	prefixCfg.GST = network.FarFuture
	prefix, err := New(prefixCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := prefix.RunEpochs(snapAt); err != nil {
		t.Fatal(err)
	}
	snap := prefix.Snapshot()
	if snap.Bytes() <= 0 {
		t.Fatalf("snapshot footprint = %d bytes, want > 0", snap.Bytes())
	}

	warm, err := New(cold)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := make([]EpochMetrics, 0, total)
	for e := 0; e < snapAt; e++ {
		got = append(got, warm.MetricsAt(types.Epoch(e+1)))
	}
	got = append(got, runRecorded(t, warm, total-snapAt)...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FarFuture prefix + Restore diverges from the cold GST run:\n  warm: %+v\n  cold: %+v", got, want)
	}
}
