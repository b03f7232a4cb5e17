package engine

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// BenchmarkResumeVsCold measures the durable checkpoint's payoff on the
// long-horizon workload: "cold" computes a sim/leak cell 4,050 epochs
// deep from scratch; "resume" serves the same cell from a depth-4000
// checkpoint — decode, adopt, and simulate only the 50-epoch remainder.
// CI gates resume >= 5x cold cells/sec, and the resumed payload is
// asserted bit-identical to the cold one — the speedup is only
// admissible because the bytes are the same. This is the crash-recovery
// economics of ROADMAP item 3: a worker killed at depth 4000 loses one
// checkpoint interval, not 4,000 epochs.
func BenchmarkResumeVsCold(b *testing.B) {
	ctx := context.Background()
	cell := Cell{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 1000, Horizon: 4050, Seed: 1}}
	sc, ok := Default.Lookup(cell.Scenario)
	if !ok {
		b.Fatal("sim/leak not registered")
	}
	cs := sc.(CheckpointableScenario)
	p := cell.Params.WithDefaults(sc.Defaults())
	key, ok := CanonicalCellKey(Default, cell)
	if !ok {
		b.Fatal("no canonical key")
	}

	// The depth-4000 checkpoint a killed worker would have left behind,
	// built once outside all timers.
	pre, err := cs.RunTo(ctx, p, nil, 4000)
	if err != nil {
		b.Fatal(err)
	}
	var blob bytes.Buffer
	if err := cs.EncodePrefix(&blob, pre); err != nil {
		b.Fatal(err)
	}

	var cold Result
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := Default.RunContext(ctx, cell.Scenario, cell.Params)
			if err != nil {
				b.Fatal(err)
			}
			cold = r
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "cells/sec")
		}
	})

	var resumed Result
	b.Run("resume", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// Completion deletes the checkpoint; re-plant it so every
			// iteration resumes from depth 4000. Periodic saves are
			// disabled (Every < 0) — the measured path is probe, decode,
			// adopt, and the 50-epoch remainder.
			ms := newMemStore()
			ms.data[key] = append([]byte(nil), blob.Bytes()...)
			b.StartTimer()
			r, err := RunCell(ctx, cell, Options{Registry: Default, Checkpoint: &CheckpointOptions{Every: -1, Store: ms}})
			if err != nil {
				b.Fatalf("checkpointed run: %v", err)
			}
			resumed = r
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "cells/sec")
		}
	})

	if cold.Scenario != "" && resumed.Scenario != "" {
		if !reflect.DeepEqual(resumed.WithoutMeta(), cold.WithoutMeta()) {
			b.Fatalf("resumed payload diverges from cold:\n  resumed: %+v\n  cold:    %+v", resumed.WithoutMeta(), cold.WithoutMeta())
		}
		if ck := resumed.Meta.Checkpoint; ck == nil || !ck.Resumed || ck.EpochsSaved != 4000 {
			b.Fatalf("resume meta %+v, want 4000 epochs saved", resumed.Meta.Checkpoint)
		}
	}
}
