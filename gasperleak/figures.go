package gasperleak

import "repro/internal/report"

// Re-exported reporting primitives.
type (
	// Figure is a CSV-renderable data series set.
	Figure = report.Figure
	// ReportTable is an ASCII-renderable table.
	ReportTable = report.Table
)

// Figure2 regenerates the paper's Figure 2 (stake trajectories).
func Figure2() *Figure { return report.Figure2() }

// Figure3 regenerates Figure 3 (active-stake ratio curves).
func Figure3() *Figure { return report.Figure3() }

// Figure6 regenerates Figure 6 (conflict epoch vs beta0, both behaviors).
func Figure6() (*Figure, error) { return report.Figure6() }

// Figure7 regenerates Figure 7 (the beta_max >= 1/3 region).
func Figure7() *Figure { return report.Figure7() }

// Figure9 regenerates Figure 9 (censored stake distribution at epoch t).
func Figure9(t float64) *Figure { return report.Figure9(t) }

// Figure10 regenerates Figure 10 (Equation 24 probability curves).
func Figure10() *Figure { return report.Figure10() }

// TableCells lists the engine sweep behind Table 2 (n = 2) or Table 3
// (n = 3); Table1Cells lists Table 1's.
func TableCells(n int) []SweepCell { return report.TableCells(n) }

// FormatEpoch renders an epoch count with its wall-clock duration.
func FormatEpoch(epochs float64) string { return report.FormatEpoch(epochs) }

// Timeline renders a protocol-simulation metrics history (from a
// MetricsRecorder) as a CSV-ready figure.
func Timeline(history []EpochMetrics) *Figure { return report.Timeline(history) }
