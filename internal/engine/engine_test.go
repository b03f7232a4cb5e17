package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/analytic"
)

func TestRegistryRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	s := NewScenario("demo", "a demo", Params{P0: 0.5}, FieldAll, func(_ context.Context, p Params) (Result, error) {
		return Result{Metrics: []Metric{{Name: "p0_echo", Value: p.P0}}}, nil
	})
	if err := r.Register(s); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(s); err == nil {
		t.Error("duplicate registration must error")
	}
	if _, ok := r.Lookup("demo"); !ok {
		t.Error("lookup failed")
	}
	if got := r.Names(); len(got) != 1 || got[0] != "demo" {
		t.Errorf("names = %v", got)
	}
}

func TestRegistryRunAppliesDefaults(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(NewScenario("demo", "a demo", Params{P0: 0.5, N: 100}, FieldAll, func(_ context.Context, p Params) (Result, error) {
		return Result{Metrics: []Metric{
			{Name: "p0_echo", Value: p.P0},
			{Name: "n_echo", Value: float64(p.N)},
		}}, nil
	}))
	res, err := r.RunContext(context.Background(), "demo", Params{N: 7})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Metric("p0_echo"); v != 0.5 {
		t.Errorf("default p0 not applied: %v", v)
	}
	if v, _ := res.Metric("n_echo"); v != 7 {
		t.Errorf("explicit n overridden: %v", v)
	}
	if res.Scenario != "demo" || res.Params.P0 != 0.5 || res.Params.N != 7 {
		t.Errorf("result not stamped: %+v", res)
	}
}

func TestRegistryRunUnknown(t *testing.T) {
	if _, err := NewRegistry().RunContext(context.Background(), "nope", Params{}); err == nil {
		t.Error("unknown scenario must error")
	}
}

func TestDefaultRegistryHasAllBuiltins(t *testing.T) {
	for _, name := range []string{
		ScenarioPartition, ScenarioDoubleVote, ScenarioSemiActive,
		ScenarioDelay, ScenarioDelayCorner, ScenarioBounce,
		ScenarioLeakSim, ScenarioBounceMC, ScenarioFig7Search, ScenarioSimPartition,
		ScenarioAnalyticConflict, ScenarioAnalyticBounce, ScenarioAnalyticThreshold,
	} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("builtin scenario %q not registered", name)
		}
	}
}

// TestAnalyticScenarios: the closed-form scenarios report what the analytic
// package computes. (The paper's values are rows of report.Claims.)
func TestAnalyticScenarios(t *testing.T) {
	params := analytic.PaperParams()
	res, err := RunContext(context.Background(), ScenarioAnalyticConflict, Params{Mode: "slashing", Beta0: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := params.ConflictingFinalization(analytic.WithSlashing, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Metric("conflict_epoch"); !ok || v != bc.ConflictEpoch {
		t.Errorf("conflict_epoch = %v, want %v", v, bc.ConflictEpoch)
	}

	res, err = RunContext(context.Background(), ScenarioAnalyticThreshold, Params{P0: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Metric("threshold_both_branches"); v != params.ThresholdBeta0(0.5) {
		t.Errorf("threshold = %v, want %v", v, params.ThresholdBeta0(0.5))
	}

	res, err = RunContext(context.Background(), ScenarioAnalyticBounce, Params{})
	if err != nil {
		t.Fatal(err)
	}
	want := (analytic.BounceModel{P0: 0.5}).ExceedProbability(4000, 1.0/3.0, params)
	if v, _ := res.Metric("eq24_probability"); v != want {
		t.Errorf("eq24 probability = %v, want %v", v, want)
	}
	lo, hi := analytic.BounceWindow(1.0 / 3.0)
	if v, _ := res.Metric("window_lo"); v != lo {
		t.Errorf("window_lo = %v, want %v", v, lo)
	}
	if v, _ := res.Metric("window_hi"); v != hi {
		t.Errorf("window_hi = %v, want %v", v, hi)
	}
	res, err = RunContext(context.Background(), ScenarioAnalyticBounce, Params{P0: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Metric("in_window"); v != 1 {
		t.Error("p0=0.6 must be inside the beta0=1/3 window")
	}
}

// TestScenario53ReportsProbabilities: Table 1's 5.3 row is a probability
// at a reference epoch, reported under its own names: Equation 24's, the
// Monte-Carlo estimate's and the epoch, with no conflict epoch beside them.
func TestScenario53ReportsProbabilities(t *testing.T) {
	res, err := RunContext(context.Background(), ScenarioBounce, Params{})
	if err != nil {
		t.Fatal(err)
	}
	eq24 := (analytic.BounceModel{P0: 0.5}).ExceedProbability(4000, 0.33, analytic.PaperParams())
	if v, _ := res.Metric("analytic_probability"); v != eq24 || v > 0.05 {
		t.Errorf("analytic_probability = %v, want Equation 24's %v", v, eq24)
	}
	if v, ok := res.Metric("mc_probability"); !ok || v < 0 || v > 0.02 {
		t.Errorf("mc_probability = %v (%v), want the ~0.002 estimate", v, ok)
	}
	if v, _ := res.Metric("reference_epoch"); v != 4000 {
		t.Errorf("reference_epoch = %v, want 4000", v)
	}
	for _, name := range []string{"analytic_epoch", "sim_epoch", "peak_byz_proportion"} {
		if v, ok := res.Metric(name); ok {
			t.Errorf("5.3 reports %s = %v", name, v)
		}
	}
}

func TestLeakSimScenarioCurve(t *testing.T) {
	res, err := RunContext(context.Background(), ScenarioLeakSim, Params{Mode: "absent-delay", N: 1000, Horizon: 2000, Sample: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.CurveName != "active_ratio_a" || len(res.Curve) != 4 {
		t.Fatalf("curve = %q x %d, want active_ratio_a x 4", res.CurveName, len(res.Curve))
	}
	if res.Curve[0].X != 500 || res.Curve[0].Y <= 0 || res.Curve[0].Y >= 1 {
		t.Errorf("first sample = %+v", res.Curve[0])
	}
}

func TestLeakSimScenarioBadMode(t *testing.T) {
	if _, err := RunContext(context.Background(), ScenarioLeakSim, Params{Mode: "warp"}); err == nil {
		t.Error("unknown mode must error")
	}
}

func TestSimPartitionScenario(t *testing.T) {
	res, err := RunContext(context.Background(), ScenarioSimPartition, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Metric("violation_detected"); v != 1 {
		t.Errorf("compressed-spec partition must reach a finality-safety violation: %v", res)
	}
	if res.Outcome == "" {
		t.Error("detected violation must set the outcome")
	}
}

func TestSimPartitionScenarioNoViolation(t *testing.T) {
	// Three epochs are not enough for a safety violation; the outcome
	// must stay empty rather than claim two finalized branches.
	res, err := RunContext(context.Background(), ScenarioSimPartition, Params{N: 8, Horizon: 3})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Metric("violation_detected"); v != 0 {
		t.Fatalf("unexpected violation: %v", res)
	}
	if res.Outcome != "" {
		t.Errorf("no violation but outcome = %q", res.Outcome)
	}
}

func TestResultString(t *testing.T) {
	r := Result{
		Scenario: "demo",
		Params:   Params{P0: 0.5, Beta0: 0.2, Seed: 3},
		Outcome:  "2 finalized branches",
		Metrics:  []Metric{{Name: "conflict_epoch", Value: 3108}},
	}
	s := r.String()
	for _, want := range []string{"demo", "p0=0.5", "beta0=0.2", "seed=3", "conflict_epoch=3108", "2 finalized branches"} {
		if !strings.Contains(s, want) {
			t.Errorf("Result.String() = %q missing %q", s, want)
		}
	}
}
