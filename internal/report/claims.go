package report

import (
	"context"
	"fmt"
	"math"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/types"
)

// Model is the level of abstraction at which a Measure reproduces a Claim.
type Model string

// The reproduction's three models.
const (
	// Analytic is the paper's continuous model in closed form.
	Analytic Model = "analytic"
	// Aggregate is the exact integer engines: the two-branch leak
	// simulation and the per-validator bouncing Monte-Carlo.
	Aggregate Model = "aggregate"
	// FullProtocol is the Gasper simulator: blocks, votes, fork choice and
	// FFG under the real spec.
	FullProtocol Model = "full protocol"
)

// Bound says how a measured value is held against its Claim's Paper value.
type Bound int8

// The bounds.
const (
	Near    Bound = iota // |measured - Paper| <= the Measure's Tol
	AtLeast              // measured >= Paper (a qualitative claim's floor)
	AtMost               // measured <= Paper (a qualitative claim's ceiling)
)

// Claim is one number of the paper, or one qualitative statement held to a
// bound, declared once, with the measures that reproduce it.
type Claim struct {
	Artifact string // "Table 2", "Figure 10", "Section 5.3"
	Row      string // the row or point within the artifact
	Paper    float64
	Says     string // the paper's words, shown instead of Paper
	Bound    Bound
	By       []Measure
}

// Measure reproduces a claim in one model: a registry cell read at one
// metric or, for a quantity the registry does not compute, Eval.
type Measure struct {
	Model  Model
	Cell   engine.Cell
	Metric string
	Eval   func(context.Context, engine.Options) (float64, error)
	Tol    float64 // a Near claim's allowed |measured - Paper|
	// Unit names the value in the root BenchmarkLedger ("" = not
	// benchmarked); Report, when set, converts the value to that unit.
	Unit   string
	Report func(float64) float64
}

// Value measures m on its own: Eval, or one run of Cell read at Metric.
func (m Measure) Value(ctx context.Context, opt engine.Options) (float64, error) {
	if m.Eval != nil {
		return m.Eval(ctx, opt)
	}
	return m.Read(engine.SweepContext(ctx, []engine.Cell{m.Cell}, opt)[0])
}

// Read takes m's metric off a result of its cell.
func (m Measure) Read(r engine.Result) (float64, error) {
	if r.Err != "" {
		return 0, fmt.Errorf("report: %s: %s", r.Scenario, r.Err)
	}
	v, ok := r.Metric(m.Metric)
	if !ok {
		return 0, fmt.Errorf("report: %s reports no %s", r.Scenario, m.Metric)
	}
	return v, nil
}

// TableCells lists the engine sweep behind Table 2 (n = 2, double voting)
// or Table 3 (n = 3, semi-active): each row's aggregate cell (tableRow).
func TableCells(n int) []engine.Cell {
	var cells []engine.Cell
	for _, c := range Claims {
		if c.Artifact == fmt.Sprintf("Table %d", n) {
			cells = append(cells, c.By[1].Cell)
		}
	}
	return cells
}

// table1 is Table 1's five cells at seed 1.
var table1 = engine.Table1Cells(1)

// Claims is the ledger of the paper's claims. The tables read their paper
// column and cells from it; TestLedger checks every measure against its
// claim and renders EXPERIMENTS.md's paper-vs-measured table from it; the
// root BenchmarkLedger reports every measure that has a Unit.
var Claims = []Claim{
	{Artifact: "Table 1", Row: "5.1, all honest", Paper: 4686, By: []Measure{
		{Model: Analytic, Cell: table1[0], Metric: "analytic_epoch"},
		{Model: Aggregate, Cell: table1[0], Metric: "sim_epoch", Tol: 25, Unit: "conflict-epochs(5.1)"},
		{Model: FullProtocol, Cell: engine.Cell{Scenario: engine.ScenarioSimLeak}, Metric: "conflict_epoch", Tol: 47},
	}},
	outcome("5.2.1, double vote", "2 finalized branches", table1[1], "sim_epoch"),
	outcome("5.2.2, semi-active", "2 finalized branches", table1[2], "sim_epoch"),
	outcome("5.2.3, delay finalization", "beta > 1/3", table1[3], "crossed_one_third"),
	outcome("5.3, probabilistic bouncing", "beta > 1/3 probably", table1[4], "crossed_one_third"),

	tableRow(2, 0, 4685, 0, 25),
	tableRow(2, 0.1, 4066, 0, 1),
	tableRow(2, 0.15, 3622, 0, 1),
	tableRow(2, 0.2, 3107, 0, 1,
		Measure{Model: Aggregate, Cell: table1[1], Metric: "sim_epoch", Tol: 2, Unit: "conflict-epochs(beta0=0.2)"}),
	tableRow(2, 0.33, 502, 0, 1),
	tableRow(3, 0, 4685, 0, 25),
	tableRow(3, 0.1, 4221, 25, 25),
	tableRow(3, 0.15, 3819, 22, 22),
	tableRow(3, 0.2, 3328, 19, 19),
	tableRow(3, 0.33, 556, 0, 3,
		Measure{Model: Aggregate, Cell: engine.Cell{Scenario: engine.ScenarioSemiActive, Params: engine.Params{P0: 0.5, Beta0: 0.33}},
			Metric: "sim_epoch", Tol: 3, Unit: "conflict-epochs(beta0=0.33)"},
		Measure{Model: FullProtocol, Cell: engine.Cell{Scenario: engine.ScenarioSimSemiActive}, Metric: "conflict_epoch", Tol: 22}),

	{Artifact: "Figure 2", Row: "semi-active stake at t=4000 (ETH)", Paper: 26.8, By: []Measure{
		{Model: Analytic, Eval: point(static(Figure2), 1, 400), Tol: 0.05, Unit: "semiactive-ETH(t=4000)"}}},
	{Artifact: "Figure 3", Row: "active ratio at p0=0.5, t=4000", Paper: 0.62, By: []Measure{
		{Model: Analytic, Eval: point(static(Figure3), 1, 400), Tol: 0.005, Unit: "ratio(p0=0.5,t=4000)"}}},
	{Artifact: "Figure 6", Row: "semi-active epoch at beta0=0.33", Paper: 555.65, By: []Measure{
		{Model: Analytic, Eval: point(func(context.Context, engine.Options) (*Figure, error) { return Figure6() }, 1, 99),
			Tol: 0.01, Unit: "semiactive-epochs(beta0=0.33)"}}},
	{Artifact: "Figure 7", Row: "symmetric-corner threshold beta0", Paper: 0.2421, By: []Measure{
		{Model: Analytic, Eval: point(static(Figure7), 2, 49), Tol: 5e-4,
			Unit: "threshold-beta0-x1e4", Report: func(v float64) float64 { return v * 1e4 }}}},
	{Artifact: "Figure 9", Row: "censored CDF at 26 ETH, t=4024", Paper: 1e-3, Says: "small (left tail)", Bound: AtMost, By: []Measure{
		{Model: Analytic, Eval: point(static(func() *Figure { return Figure9(4024) }), 1, 260), Unit: "cdf(26ETH,t=4024)"}}},
	{Artifact: "Figure 10", Row: "P(beta > 1/3) at beta0=1/3, t=4000", Paper: 0.5, By: []Measure{
		{Model: Analytic, Eval: point(static(Figure10), 0, 400), Tol: 0.01, Unit: "P(beta>1/3)(t=4000)"},
		{Model: Aggregate, Eval: point(func(ctx context.Context, opt engine.Options) (*Figure, error) {
			return Figure10MonteCarlo(ctx, 1.0/3.0, 300, 3, 5, opt)
		}, 0, 3), Tol: 0.05, Unit: "MC-P(beta>1/3)(t=4000)"}}},

	{Artifact: "Section 5.2", Row: "speedup with slashing at beta0=0.33", Paper: 10, Says: "ten times faster", By: []Measure{
		{Model: Analytic, Eval: speedup(func(p analytic.Params) (float64, error) { return p.ConflictEpochSlashing(0.5, 0.33), nil }), Tol: 1}}},
	{Artifact: "Section 5.2", Row: "speedup without slashing at beta0=0.33", Paper: 8, Says: "eight times faster", By: []Measure{
		{Model: Analytic, Eval: speedup(func(p analytic.Params) (float64, error) { return p.ConflictEpochSemiActive(0.5, 0.33) }), Tol: 0.5}}},
	{Artifact: "Section 5.3", Row: "P(attack continues to epoch 7000), j=8, beta0=1/3", Paper: 1.01e-121, By: []Measure{
		{Model: Analytic, Eval: value(func() float64 { return analytic.BounceContinuationProbability(1.0/3.0, 8, 7000) }),
			Tol: 0.09e-121, Unit: "-log10(P-continue-7000)", Report: func(v float64) float64 { return math.Ceil(-math.Log10(v)) }}}},
	{Artifact: "Section 5.3", Row: "Eq 14 window width at beta0=1/3", Paper: 0.5, By: []Measure{
		{Model: Analytic, Eval: value(func() float64 {
			lo, hi := analytic.BounceWindow(1.0 / 3.0)
			return hi - lo
		}), Tol: 0.001, Unit: "window-width(beta0=1/3)"}}},
	{Artifact: "Section 5.1 (X1)", Row: "lasting partition, compressed spec: violation epoch", Paper: 1, Says: "safety violation", Bound: AtLeast, By: []Measure{
		{Model: FullProtocol, Cell: engine.Cell{Scenario: engine.ScenarioSimPartition}, Metric: "violation_epoch", Unit: "violation-epoch(compressed)"}}},
	{Artifact: "Ablation", Row: "bounded minus unbounded scores, P at t=5000", Paper: 0, Says: "the paper's model is conservative", Bound: AtLeast, By: []Measure{
		{Model: Aggregate, Eval: unboundedScoresGap, Unit: "bounded-minus-unbounded-x1e4", Report: func(v float64) float64 { return v * 1e4 }}}},
	{Artifact: "Ablation", Row: "ejection anchor gap, 4685 vs continuous (epochs)", Paper: 24, Says: "~24", By: []Measure{
		{Model: Analytic, Tol: 0.5, Unit: "anchor-gap-epochs", Eval: value(func() float64 {
			return analytic.PaperParams().EjectionEpoch - analytic.ContinuousParams().EjectionEpoch
		})}}},
}

// outcome declares a Table 1 row whose claim is its outcome line, held as
// a floor of 1 on the cell's metric (a conflict epoch, or a crossing flag).
func outcome(row, says string, cell engine.Cell, metric string) Claim {
	return Claim{Artifact: "Table 1", Row: row, Paper: 1, Says: says, Bound: AtLeast,
		By: []Measure{{Model: Aggregate, Cell: cell, Metric: metric}}}
}

// tableRow declares one beta0 row of Table 2 (n = 2, double voting,
// Equation 9) or Table 3 (n = 3, semi-active, Equation 10) at p0 = 0.5:
// the paper's epoch; the closed form rounded as the paper's tables round
// it (By[0]) and the aggregate engine's threshold epoch (By[1]), the
// columns BetaTable shows, each within its tolerance of the paper; then
// any further measures.
func tableRow(n int, beta0, paper, tolAnalytic, tolAggregate float64, more ...Measure) Claim {
	mode := map[int]string{2: "double", 3: "semi"}[n]
	if beta0 == 0 {
		mode = "absent"
	}
	return Claim{Artifact: fmt.Sprintf("Table %d", n), Row: fmt.Sprintf("beta0=%g", beta0), Paper: paper, By: append([]Measure{
		{Model: Analytic, Eval: func(context.Context, engine.Options) (float64, error) {
			p := analytic.PaperParams()
			t, err := p.ConflictEpochHonest(0.5), error(nil)
			switch {
			case beta0 == 0:
			case n == 2:
				t = p.ConflictEpochSlashing(0.5, beta0)
			default:
				t, err = p.ConflictEpochSemiActive(0.5, beta0)
			}
			return float64(analytic.PaperTableEpoch(t)), err
		}, Tol: tolAnalytic},
		{Model: Aggregate, Cell: engine.Cell{Scenario: engine.ScenarioLeakSim, Params: engine.Params{
			P0: 0.5, Beta0: beta0, Mode: mode, N: 10000, Horizon: 9000,
		}}, Metric: "threshold_epoch_b", Tol: tolAggregate},
	}, more...)}
}

// point reads one value off a figure.
func point(f func(context.Context, engine.Options) (*Figure, error), series, i int) func(context.Context, engine.Options) (float64, error) {
	return func(ctx context.Context, opt engine.Options) (float64, error) {
		fig, err := f(ctx, opt)
		if err != nil {
			return 0, err
		}
		return fig.Series[series].Values[i], nil
	}
}

// static adapts a figure that runs no cells to point.
func static(f func() *Figure) func(context.Context, engine.Options) (*Figure, error) {
	return func(context.Context, engine.Options) (*Figure, error) { return f(), nil }
}

// value adapts a closed form that cannot fail to an Eval.
func value(f func() float64) func(context.Context, engine.Options) (float64, error) {
	return func(context.Context, engine.Options) (float64, error) { return f(), nil }
}

// speedup is how many times sooner than the honest-only conflict (p0 =
// 0.5) the given Byzantine conflict epoch comes.
func speedup(epoch func(analytic.Params) (float64, error)) func(context.Context, engine.Options) (float64, error) {
	return func(context.Context, engine.Options) (float64, error) {
		p := analytic.PaperParams()
		t, err := epoch(p)
		return p.ConflictEpochHonest(0.5) / t, err
	}
}

// unboundedScoresGap is the crossing probability at epoch 5000 under the
// real floored scores minus under the paper's unbounded simplification.
func unboundedScoresGap(context.Context, engine.Options) (float64, error) {
	mc := core.BounceMC{NHonest: 300, Beta0: 0.33, P0: 0.5, Seed: 7}
	var p [2]float64
	for i, unbounded := range []bool{false, true} {
		mc.UnboundedScores = unbounded
		q, err := mc.ExceedProbability([]types.Epoch{5000}, 2)
		if err != nil {
			return 0, err
		}
		p[i] = q[0]
	}
	return p[0] - p[1], nil
}
