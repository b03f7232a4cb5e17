package core

import (
	"context"
	"testing"

	"repro/internal/types"
)

// BenchmarkLeakSimFullHorizon measures a full 9000-epoch, 10k-validator
// aggregate run (the unit behind every Table 2/3 cell).
func BenchmarkLeakSimFullHorizon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := LeakSim{N: 10000, P0: 0.5, Beta0: 0.2, Mode: ByzSemiActive}
		if _, err := sim.Run(9000, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBounceMCEpochValidator measures the per-validator-epoch cost of
// the bouncing Monte-Carlo (500 validators x 1000 epochs per op).
func BenchmarkBounceMCEpochValidator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mc := BounceMC{NHonest: 500, Beta0: 0.33, P0: 0.5, Seed: int64(i)}
		if _, _, err := mc.RunContext(context.Background(), 1000, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenario523Corner measures the footnote-12 corner-case scenario
// (two full-horizon runs per op).
func BenchmarkScenario523Corner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Scenario523Corner(context.Background(), probe523, types.Epoch(200)); err != nil {
			b.Fatal(err)
		}
	}
}
