package engine

import (
	"context"
	"testing"
)

// TestSimLeakValidation pins the sim/leak parameter contract without
// paying for a long run.
func TestSimLeakValidation(t *testing.T) {
	for _, p := range []Params{
		{P0: 0, N: 100, Horizon: 100},   // empty branch
		{P0: 1, N: 100, Horizon: 100},   // empty branch
		{P0: 0.99, N: 50, Horizon: 100}, // branch B rounds to empty
		{P0: 0.01, N: 50, Horizon: 100}, // branch A rounds to empty
		{P0: 0.5, N: 2, Horizon: 100},   // too few validators
		{P0: 0.5, N: 100, Horizon: 2},   // no finality runway
	} {
		p := p.MarkExplicit(FieldP0)
		if _, err := RunContext(context.Background(), ScenarioSimLeak, p); err == nil {
			t.Errorf("sim/leak accepted %+v", p)
		}
	}
	if _, err := RunContext(context.Background(), ScenarioSimSemiActive, Params{Beta0: 0.0001, N: 100, Horizon: 10}); err == nil {
		t.Error("sim/semiactive accepted a byzantine set that rounds to zero")
	}
}
