package engine

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestGridCellsOrderAndSeeds(t *testing.T) {
	g := Grid{
		Scenario: ScenarioLeakSim,
		P0:       []float64{0.4, 0.5},
		Beta0:    []float64{0.1, 0.2},
		Modes:    []string{"double", "semi"},
		Seeds:    []int64{1},
		N:        1000,
	}
	cells := g.Cells()
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	// p0 is the outermost dimension.
	if cells[0].Params.P0 != 0.4 || cells[7].Params.P0 != 0.5 {
		t.Errorf("unexpected order: %+v ... %+v", cells[0].Params, cells[7].Params)
	}
	// Derived seeds differ across coordinates and are reproducible.
	seen := map[int64]bool{}
	for _, c := range cells {
		if c.Params.Seed == 0 {
			t.Fatalf("cell %+v got no derived seed", c.Params)
		}
		seen[c.Params.Seed] = true
	}
	if len(seen) != 8 {
		t.Errorf("derived seeds collide: %d distinct of 8", len(seen))
	}
	again := g.Cells()
	if !reflect.DeepEqual(cells, again) {
		t.Error("Cells() is not deterministic")
	}
}

func TestGridCellsDerivesExplicitZeroAndNegativeSeeds(t *testing.T) {
	g := Grid{Scenario: ScenarioBounceMC, Beta0: []float64{0.33}, Seeds: []int64{-1, 0, 1}}
	cells := g.Cells()
	seen := map[int64]bool{}
	for _, c := range cells {
		if c.Params.Seed <= 0 {
			t.Errorf("base seed list must always derive a positive cell seed, got %d", c.Params.Seed)
		}
		seen[c.Params.Seed] = true
	}
	if len(seen) != 3 {
		t.Errorf("derived seeds collide: %d distinct of 3", len(seen))
	}
	// Without a seed dimension, cells stay on the scenario default.
	if c := (Grid{Scenario: ScenarioBounceMC, Beta0: []float64{0.33}}).Cells(); c[0].Params.Seed != 0 {
		t.Errorf("unspecified seed dimension must stay zero, got %d", c[0].Params.Seed)
	}
}

func TestGridFillFrom(t *testing.T) {
	g := Grid{Scenario: ScenarioLeakSim, Beta0: []float64{0.1, 0.2}}
	filled := g.FillFrom(Params{P0: 0.4, Beta0: 0.3, Mode: "double", Seed: 7, Horizon: 500, N: 100, Sample: 50})
	if !reflect.DeepEqual(filled.P0, []float64{0.4}) {
		t.Errorf("p0 not filled: %v", filled.P0)
	}
	if !reflect.DeepEqual(filled.Beta0, []float64{0.1, 0.2}) {
		t.Errorf("specified beta0 overridden: %v", filled.Beta0)
	}
	if !reflect.DeepEqual(filled.Modes, []string{"double"}) || !reflect.DeepEqual(filled.Seeds, []int64{7}) ||
		!reflect.DeepEqual(filled.Horizons, []int{500}) || filled.N != 100 || filled.Sample != 50 {
		t.Errorf("fill incomplete: %+v", filled)
	}
}

func TestDeriveSeedProperties(t *testing.T) {
	a := DeriveSeed(1, 0.5, 0.2, "double", 9000)
	b := DeriveSeed(1, 0.5, 0.2, "double", 9000)
	if a != b {
		t.Error("same coordinates must derive the same seed")
	}
	if a <= 0 {
		t.Errorf("derived seed %d must be positive", a)
	}
	if DeriveSeed(2, 0.5, 0.2, "double", 9000) == a {
		t.Error("base seed must matter")
	}
	if DeriveSeed(1, 0.6, 0.2, "double", 9000) == a {
		t.Error("p0 must matter")
	}
	if DeriveSeed(1, 0.5, 0.2, "semi", 9000) == a {
		t.Error("mode must matter")
	}
}

func TestParseGrid(t *testing.T) {
	g, err := ParseGrid("leaksim", "p0=0.2:0.6:0.2; beta0=0.1,0.25; mode=double,semi; seed=1:3:1; horizon=9000; n=5000; sample=100")
	if err != nil {
		t.Fatal(err)
	}
	if g.Scenario != "leaksim" {
		t.Errorf("scenario = %q", g.Scenario)
	}
	wantP0 := []float64{0.2, 0.4, 0.6}
	if len(g.P0) != len(wantP0) {
		t.Fatalf("p0 = %v, want %v", g.P0, wantP0)
	}
	for i := range wantP0 {
		if math.Abs(g.P0[i]-wantP0[i]) > 1e-12 {
			t.Errorf("p0[%d] = %v, want %v", i, g.P0[i], wantP0[i])
		}
	}
	if !reflect.DeepEqual(g.Beta0, []float64{0.1, 0.25}) {
		t.Errorf("beta0 = %v", g.Beta0)
	}
	if !reflect.DeepEqual(g.Modes, []string{"double", "semi"}) {
		t.Errorf("modes = %v", g.Modes)
	}
	if !reflect.DeepEqual(g.Seeds, []int64{1, 2, 3}) {
		t.Errorf("seeds = %v", g.Seeds)
	}
	if !reflect.DeepEqual(g.Horizons, []int{9000}) {
		t.Errorf("horizons = %v", g.Horizons)
	}
	if g.N != 5000 || g.Sample != 100 {
		t.Errorf("n = %d sample = %d", g.N, g.Sample)
	}
	if n := len(g.Cells()); n != 3*2*2*3 {
		t.Errorf("cells = %d, want 36", n)
	}
}

// TestParseGridErrors: malformed specs fail with messages that name the
// offending dimension and token, so a mistyped 40-cell sweep spec is
// debuggable from the error alone.
func TestParseGridErrors(t *testing.T) {
	tests := []struct {
		name string
		spec string
		want []string // substrings the error must contain
	}{
		{"not key=value", "p0", []string{`"p0"`, "key=value"}},
		{"unknown key", "warp=1", []string{`"warp"`, "unknown sweep key"}},
		{"hi below lo", "p0=0.5:0.1:0.1", []string{`"p0"`, `"0.5:0.1:0.1"`, "lo <= hi"}},
		{"float token", "p0=0.2,zap", []string{`"p0"`, `"zap"`}},
		{"float range token", "p0=0.1:x:0.1", []string{`"p0"`, `"x"`}},
		{"range arity", "beta0=0.1:0.2", []string{`"beta0"`, `"0.1:0.2"`, "lo:hi:step"}},
		{"zero step", "seed=1:10:0", []string{`"seed"`, `"1:10:0"`, "step > 0"}},
		{"int token", "horizon=10,later", []string{`"horizon"`, `"later"`}},
		{"int range token", "seed=1:ten:1", []string{`"seed"`, `"ten"`}},
		{"n wants one value", "n=1,2", []string{`"n"`, "single value", `"1,2"`}},
		{"sample wants one value", "sample=5,10", []string{`"sample"`, "single value", `"5,10"`}},
		{"n range wants one value", "n=1:1000000000000:1", []string{`"n"`, "single value"}},
		// A range ending at MaxInt64 used to wrap its stepping and never
		// return; this one is counted (two values) and then refused by the
		// range after it.
		{"range to MaxInt64", "seed=9223372036854775806:9223372036854775807:1; horizon=1:1000000:1", []string{`"horizon"`, "1000000 values", "1048576 cells"}},
		{"huge int range", "seed=-9223372036854775808:9223372036854775807:1", []string{`"seed"`, "18446744073709551616 values"}},
		{"huge float range", "p0=0:1:1e-300", []string{`"p0"`, "cells"}},
		{"NaN range", "rate=NaN:1:0.1", []string{`"rate"`, "lo <= hi"}},
		{"1e15-cell product", "p0=0:1:0.001; beta0=0:1:0.001; gst=1:1000:1; horizon=1:1000:1; seed=1:1000:1", []string{`"gst"`, "1000 values", "1048576 cells"}},
		{"comma list over the limit", "seed=1:1024:1; mode=" + strings.Repeat("m,", 1024) + "m", []string{`"mode"`, "1025 values"}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseGrid("leaksim", tc.spec)
			if err == nil {
				t.Fatalf("spec %q must error", tc.spec)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("spec %q: error %q does not name %s", tc.spec, err, want)
				}
			}
		})
	}
}

func TestSweepRecordsCellErrors(t *testing.T) {
	cells := []Cell{
		{Scenario: ScenarioAnalyticThreshold, Params: Params{P0: 0.5}},
		{Scenario: "no-such-scenario", Params: Params{}},
		{Scenario: ScenarioLeakSim, Params: Params{Mode: "warp"}},
	}
	results := SweepContext(context.Background(), cells, Options{Workers: 2})
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Err != "" {
		t.Errorf("cell 0 failed: %s", results[0].Err)
	}
	if results[1].Err == "" || results[2].Err == "" {
		t.Error("failing cells must record errors")
	}
	if FirstError(results) == nil {
		t.Error("FirstError must surface the failure")
	}
	if FirstError(results[:1]) != nil {
		t.Error("FirstError on clean results must be nil")
	}
	// A failed cell of a known scenario still records the defaulted
	// params of the attempted run.
	if p := results[2].Params; p.N == 0 || p.Horizon == 0 {
		t.Errorf("failed leaksim cell lost its defaulted params: %+v", p)
	}
}

// TestSweepDeterminism is the acceptance check of the sweep runner: the
// same grid, including Monte-Carlo cells, must produce bit-identical
// Result slices with 1 worker and with runtime.NumCPU() workers.
func TestSweepDeterminism(t *testing.T) {
	leak := Grid{
		Scenario: ScenarioLeakSim,
		P0:       []float64{0.4, 0.5},
		Beta0:    []float64{0.1, 0.2},
		Modes:    []string{"double", "semi"},
		Seeds:    []int64{1},
		Horizons: []int{1500},
		N:        2000,
		Sample:   500,
	}
	mc := Grid{
		Scenario: ScenarioBounceMC,
		P0:       []float64{0.5},
		Beta0:    []float64{0.33},
		Seeds:    []int64{1, 2, 3},
		Horizons: []int{400},
		N:        100,
	}
	cells := append(leak.Cells(), mc.Cells()...)

	sequential := SweepContext(context.Background(), cells, Options{Workers: 1})
	parallel := SweepContext(context.Background(), cells, Options{Workers: runtime.NumCPU()})
	// Meta carries wall-clock timing and is excluded from the
	// determinism contract.
	if !reflect.DeepEqual(StripMeta(sequential), StripMeta(parallel)) {
		t.Fatalf("sweep results differ between 1 and %d workers", runtime.NumCPU())
	}
	if err := FirstError(sequential); err != nil {
		t.Fatal(err)
	}
	// The Monte-Carlo cells must have actually exercised the RNG.
	var mcSeen bool
	for _, r := range sequential {
		if r.Scenario == ScenarioBounceMC {
			mcSeen = true
			if r.Params.Seed == 0 {
				t.Errorf("MC cell without derived seed: %+v", r.Params)
			}
		}
	}
	if !mcSeen {
		t.Fatal("no Monte-Carlo cells in the determinism grid")
	}
}

func TestSweepGridAndWorkerDefaults(t *testing.T) {
	g := Grid{Scenario: ScenarioAnalyticThreshold, P0: []float64{0.3, 0.5, 0.7}}
	results := SweepContext(context.Background(), g.Cells(), Options{})
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	// The symmetric corner again.
	if v, _ := results[1].Metric("threshold_both_branches"); v < 0.24 || v > 0.245 {
		t.Errorf("threshold(0.5) = %v", v)
	}
}

// TestTable1CellsMatchPaper: Table 1 is five cells, in the paper's order,
// each with its outcome line, swept like any grid — plus the footnote-12
// corner (5.2.3c, finalizing 100 epochs before the ejection), the one paper
// scenario the table does not list.
func TestTable1CellsMatchPaper(t *testing.T) {
	cells := Table1Cells(1)
	if len(cells) != 5 {
		t.Fatalf("cells = %d, want 5", len(cells))
	}
	corner := Cell{Scenario: ScenarioDelayCorner, Params: Params{P0: 0.5, Beta0: 0.25, Horizon: 100}}
	results := SweepContext(context.Background(), append(cells, corner), Options{})
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"5.1", "5.2.1", "5.2.2", "5.2.3", "5.3", "5.2.3c"} {
		if results[i].Scenario != id || results[i].Outcome == "" {
			t.Errorf("row %d: scenario %q outcome %q, want %s with an outcome", i, results[i].Scenario, results[i].Outcome, id)
		}
	}
	// Scenario 5.1's epochs against the paper are rows of report.Claims.
	// Scenario 5.2.3 crosses one third, and so does its corner.
	for _, i := range []int{3, 5} {
		if v, _ := results[i].Metric("crossed_one_third"); v != 1 {
			t.Errorf("%s must cross one third", results[i].Scenario)
		}
	}
}

func TestParseGridRateAndGST(t *testing.T) {
	g, err := ParseGrid("sim/drops", "rate=0.1:0.3:0.1; gst=4,8; seed=1; n=256")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rates) != 3 || g.Rates[0] != 0.1 {
		t.Errorf("rates = %v", g.Rates)
	}
	if len(g.GSTs) != 2 || g.GSTs[1] != 8 {
		t.Errorf("gsts = %v", g.GSTs)
	}
	cells := g.Cells()
	if len(cells) != 6 {
		t.Fatalf("cells = %d, want 3 rates x 2 gsts", len(cells))
	}
	// Cells differing only in rate/gst share their derived seed (common
	// random numbers): every cell of a robustness sweep faces the same
	// duty schedule.
	for _, c := range cells[1:] {
		if c.Params.Seed != cells[0].Params.Seed {
			t.Errorf("cell %v has different seed than %v", c.Params, cells[0].Params)
		}
	}
	// The rate/gst coordinates land in the cell params.
	if cells[0].Params.Rate != 0.1 || cells[0].Params.GST != 4 {
		t.Errorf("first cell params = %v", cells[0].Params)
	}
	if cells[5].Params.GST != 8 {
		t.Errorf("last cell params = %v", cells[5].Params)
	}
}

func TestGridFillFromRateAndGST(t *testing.T) {
	g := Grid{Scenario: "sim/gst"}
	g = g.FillFrom(Params{Rate: 0.25, GST: 6})
	if len(g.Rates) != 1 || g.Rates[0] != 0.25 {
		t.Errorf("rates = %v", g.Rates)
	}
	if len(g.GSTs) != 1 || g.GSTs[0] != 6 {
		t.Errorf("gsts = %v", g.GSTs)
	}
}

func TestParamsStringIncludesRateAndGST(t *testing.T) {
	s := Params{P0: 0.5, Rate: 0.2, GST: 8}.String()
	for _, want := range []string{"rate=0.2", "gst=8"} {
		if !strings.Contains(s, want) {
			t.Errorf("Params.String() = %q, missing %q", s, want)
		}
	}
}

// TestParseGridLimitAndOverflow: a range ending at MaxInt64 steps without
// wrapping, and an accepted spec expands to exactly its counted product,
// at most maxGridCells.
func TestParseGridLimitAndOverflow(t *testing.T) {
	g, err := ParseGrid("leaksim", "seed=9223372036854775806:9223372036854775807:1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Seeds, []int64{math.MaxInt64 - 1, math.MaxInt64}) {
		t.Errorf("seeds = %v", g.Seeds)
	}
	g, err = ParseGrid("leaksim", "seed=1:1024:1; horizon=1:1024:1")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.Cells()); n != maxGridCells {
		t.Errorf("%d cells, want %d", n, maxGridCells)
	}
}
