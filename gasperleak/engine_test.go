package gasperleak_test

import (
	"context"
	"strings"
	"testing"

	"repro/gasperleak"
)

// TestPublicEngineWrappers exercises the scenario-engine re-exports: the
// registry, a single run, a parsed sweep, and the three renderers.
func TestPublicEngineWrappers(t *testing.T) {
	names := gasperleak.ScenarioNames()
	if len(names) == 0 {
		t.Fatal("empty registry")
	}
	if _, ok := gasperleak.LookupScenario("5.2.1"); !ok {
		t.Errorf("5.2.1 missing from registry %v", names)
	}

	c, err := gasperleak.NewClient(gasperleak.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := c.Run(ctx, "analytic/conflict", gasperleak.ScenarioParams{Mode: "slashing", Beta0: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := gasperleak.PaperParams().ConflictingFinalization(gasperleak.WithSlashing, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Metric("conflict_epoch"); !ok || v != bc.ConflictEpoch {
		t.Errorf("conflict_epoch = %v, want %v", v, bc.ConflictEpoch)
	}

	g, err := gasperleak.ParseGrid("analytic/threshold", "p0=0.3,0.5,0.7")
	if err != nil {
		t.Fatal(err)
	}
	results := c.SweepGrid(ctx, g)
	if err := gasperleak.SweepFirstError(results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}

	tbl := gasperleak.RenderSweep("demo", results)
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "threshold_both_branches") {
		t.Errorf("sweep table missing metric column:\n%s", b.String())
	}
	b.Reset()
	if err := gasperleak.WriteSweepCSV(&b, "demo", results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "scenario,p0") {
		t.Errorf("sweep CSV header missing:\n%s", b.String())
	}
	b.Reset()
	if err := gasperleak.WriteSweepJSON(&b, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"scenario"`) {
		t.Errorf("sweep JSON missing:\n%s", b.String())
	}

	if gasperleak.DeriveSeed(1, 0.5, 0.2, "double", 0) == gasperleak.DeriveSeed(2, 0.5, 0.2, "double", 0) {
		t.Error("DeriveSeed must depend on the base seed")
	}
	if len(gasperleak.Table1Cells(1)) != 5 || len(gasperleak.TableCells(2)) != 5 || len(gasperleak.TableCells(3)) != 5 {
		t.Error("table cell lists must have 5 cells each")
	}
}
