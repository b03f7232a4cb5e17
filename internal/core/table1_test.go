package core_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/analytic"
	"repro/internal/engine"
)

// The Table 1 scenarios are rows of the engine's registry, which imports
// this package; these tests sit in core_test to run them from here.

func runCell(t *testing.T, c engine.Cell) engine.Result {
	t.Helper()
	res, err := engine.RunContext(context.Background(), c.Scenario, c.Params)
	if err != nil {
		t.Fatalf("%s: %v", c.Scenario, err)
	}
	return res
}

func metric(t *testing.T, res engine.Result, name string) float64 {
	t.Helper()
	v, ok := res.Metric(name)
	if !ok {
		t.Fatalf("%s reports no %s", res.Scenario, name)
	}
	return v
}

// TestScenarioSummaries: 5.1 conflicts one epoch after each model's
// ejection, and the scenarios order and cross as the paper says.
func TestScenarioSummaries(t *testing.T) {
	s1res := runCell(t, engine.Cell{Scenario: engine.ScenarioPartition, Params: engine.Params{P0: 0.5}})
	if got, want := metric(t, s1res, "analytic_epoch"), analytic.PaperParams().EjectionEpoch+1; got != want {
		t.Errorf("scenario 5.1 analytic epoch = %v, want %v", got, want)
	}
	s1 := metric(t, s1res, "sim_epoch")
	if want := math.Ceil(analytic.ContinuousParams().EjectionEpoch) + 1; s1 != want {
		t.Errorf("scenario 5.1 sim epoch = %v, want %v (endogenous ejection + 1)", s1, want)
	}

	s21 := metric(t, runCell(t, engine.Cell{Scenario: engine.ScenarioDoubleVote, Params: engine.Params{P0: 0.5, Beta0: 0.2}}), "sim_epoch")
	if s21 == 0 || s21 >= s1 {
		t.Errorf("scenario 5.2.1 sim epoch = %v, want a conflict before 5.1's %v", s21, s1)
	}

	s22 := metric(t, runCell(t, engine.Cell{Scenario: engine.ScenarioSemiActive, Params: engine.Params{P0: 0.5, Beta0: 0.2}}), "sim_epoch")
	if s22 <= s21 {
		t.Error("semi-active conflict must be slower than double-vote conflict")
	}

	s23 := runCell(t, engine.Cell{Scenario: engine.ScenarioDelay, Params: engine.Params{P0: 0.5, Beta0: 0.25}})
	if metric(t, s23, "crossed_one_third") != 1 || metric(t, s23, "peak_byz_proportion") <= 1.0/3.0 {
		t.Errorf("scenario 5.2.3 must cross 1/3: %v", s23)
	}

	s3 := runCell(t, engine.Cell{Scenario: engine.ScenarioBounce, Params: engine.Params{P0: 0.5, Beta0: 1.0 / 3.0, Seed: 3}})
	if mc, eq24 := metric(t, s3, "mc_probability"), metric(t, s3, "analytic_probability"); math.Abs(mc-eq24) > 0.1 {
		t.Errorf("scenario 5.3 MC probability = %v, Equation 24 %v at beta0=1/3", mc, eq24)
	}
}

// TestTable1: the five Table 1 rows, in the paper's order, each run at the
// table's parameters and carrying the table's outcome line.
func TestTable1(t *testing.T) {
	rows := []struct {
		id      string
		outcome string
	}{
		{"5.1", "2 finalized branches"},
		{"5.2.1", "2 finalized branches"},
		{"5.2.2", "2 finalized branches"},
		{"5.2.3", "beta > 1/3"},
		{"5.3", "beta > 1/3 probably"},
	}
	cells := engine.Table1Cells(1)
	if len(cells) != len(rows) {
		t.Fatalf("Table 1 has %d cells, want %d", len(cells), len(rows))
	}
	for i, r := range rows {
		if cells[i].Scenario != r.id {
			t.Fatalf("row %d is %s, want %s", i, cells[i].Scenario, r.id)
		}
		if res := runCell(t, cells[i]); res.Outcome != r.outcome {
			t.Errorf("row %s: outcome %q, want %q", r.id, res.Outcome, r.outcome)
		}
	}
}
