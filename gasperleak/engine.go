package gasperleak

import (
	"io"

	"repro/internal/engine"
	"repro/internal/report"
)

// Re-exported scenario-engine primitives: the unified runner behind every
// table, figure, and CLI of the reproduction. Scenarios are looked up by
// name in a registry and parameter grids fan out over a worker pool with
// per-cell derived seeds, so sweep result payloads are bit-identical
// regardless of worker count. Execution goes through a Client (client.go).
type (
	// Scenario is one runnable analysis (analytic solver, paper-scale
	// engine, or protocol-simulator experiment).
	Scenario = engine.Scenario
	// ScenarioParams parameterizes a scenario run (zero field = scenario
	// default).
	ScenarioParams = engine.Params
	// ScenarioResult is the structured record every scenario emits.
	ScenarioResult = engine.Result
	// ScenarioMetric is one named scalar output.
	ScenarioMetric = engine.Metric
	// ScenarioRegistry is a named set of scenarios.
	ScenarioRegistry = engine.Registry
	// SweepCell is one sweep unit: scenario name + parameters.
	SweepCell = engine.Cell
	// SweepGrid is a rectangular parameter sweep (p0 x beta0 x mode x
	// seed x horizon) for one scenario.
	SweepGrid = engine.Grid
	// SweepOptions bounds sweep concurrency and selects the registry.
	SweepOptions = engine.Options
	// ParamField identifies one ScenarioParams field for
	// explicit-presence tracking (ScenarioParams.Explicit): marking a
	// field keeps an explicit zero — rate=0, gst=0 — through defaulting.
	ParamField = engine.Field
	// SpareStats accounts the finished simulations the process keeps for
	// genesis starts to reset (SpareSimulations).
	SpareStats = engine.SpareStats
)

// SpareSimulations reports the spare simulations: how many are idle, and
// how many genesis starts reset one or built a new simulation.
func SpareSimulations() SpareStats { return engine.Spares() }

// ParseGrid parses a "p0=0.2:0.8:0.1; beta0=0.1,0.2; mode=double" sweep
// spec into a grid for the named scenario.
func ParseGrid(scenario, spec string) (SweepGrid, error) {
	return engine.ParseGrid(scenario, spec)
}

// SweepFirstError returns the first per-cell error of a sweep, if any.
func SweepFirstError(results []ScenarioResult) error { return engine.FirstError(results) }

// Table1Cells lists the paper's Table 1 as sweep cells.
func Table1Cells(seed int64) []SweepCell { return engine.Table1Cells(seed) }

// BounceMCGrid builds the standard bouncing Monte-Carlo ensemble grid:
// one bounce-mc cell per run with consecutive base seeds.
func BounceMCGrid(p0, beta0 float64, n, runs int, seed int64, sample, horizon int) SweepGrid {
	return engine.BounceMCGrid(p0, beta0, n, runs, seed, sample, horizon)
}

// RenderSweep renders sweep results as a fixed-width ASCII table.
func RenderSweep(title string, results []ScenarioResult) *ReportTable {
	return report.SweepTable(title, results)
}

// WriteSweepCSV emits sweep results as CSV.
func WriteSweepCSV(w io.Writer, title string, results []ScenarioResult) error {
	return report.WriteSweepCSV(w, title, results)
}

// WriteSweepJSON emits sweep results as indented JSON.
func WriteSweepJSON(w io.Writer, results []ScenarioResult) error {
	return report.WriteSweepJSON(w, results)
}
