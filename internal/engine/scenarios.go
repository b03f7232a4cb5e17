package engine

import (
	"context"
	"fmt"
	"math"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/types"
)

// Registry names of the built-in scenarios.
const (
	// The paper's five Table 1 scenarios plus the footnote-12 corner.
	ScenarioPartition   = "5.1"
	ScenarioDoubleVote  = "5.2.1"
	ScenarioSemiActive  = "5.2.2"
	ScenarioDelay       = "5.2.3"
	ScenarioDelayCorner = "5.2.3c"
	ScenarioBounce      = "5.3"
	// Generic engines for open-ended sweeps.
	ScenarioLeakSim    = "leaksim"
	ScenarioBounceMC   = "bounce-mc"
	ScenarioFig7Search = "fig7-threshold"
	// Closed-form solvers.
	ScenarioAnalyticConflict  = "analytic/conflict"
	ScenarioAnalyticBounce    = "analytic/bounce"
	ScenarioAnalyticThreshold = "analytic/threshold"
)

func init() {
	for i := range paperRows {
		r := &paperRows[i]
		Default.MustRegister(NewScenario(r.name, r.desc, r.defaults, r.reads, r.run))
	}
	Default.MustRegister(NewScenario(ScenarioDelayCorner,
		"Finalize just before ejection (fn. 12; horizon = lead epochs before ejection, not a run bound)",
		Params{P0: 0.5, Beta0: 0.25, Horizon: 200}, FieldP0|FieldBeta0|FieldHorizon,
		func(ctx context.Context, p Params) (Result, error) {
			s, err := core.Scenario523Corner(ctx, delayRow.leakSim(p), types.Epoch(p.Horizon))
			return summaryResult(s), err
		}))
	Default.MustRegister(NewScenario(ScenarioBounce,
		"Probabilistic bouncing attack",
		Params{P0: 0.5, Beta0: 0.33, Seed: 1}, FieldP0|FieldBeta0|FieldSeed,
		func(ctx context.Context, p Params) (Result, error) {
			s, err := core.Scenario53(ctx, p.P0, p.Beta0, p.Seed)
			return Result{Outcome: s.Outcome, Metrics: []Metric{
				{Name: "analytic_probability", Value: s.AnalyticProb},
				{Name: "mc_probability", Value: s.MCProb},
				{Name: "reference_epoch", Value: float64(s.RefEpoch)},
				{Name: "crossed_one_third", Value: boolMetric(s.CrossedOneThird)},
			}}, err
		}))

	Default.MustRegister(NewScenario(ScenarioLeakSim,
		"Aggregate two-branch leak simulation (mode: absent, absent-delay, double, semi, semi-delay)",
		Params{P0: 0.5, Mode: "absent", N: 10000, Horizon: 9000},
		FieldP0|FieldBeta0|FieldMode|FieldN|FieldHorizon|FieldSample, runLeakSim))
	Default.MustRegister(NewScenario(ScenarioBounceMC,
		"Per-validator bouncing-attack Monte-Carlo (one trajectory per seed)",
		Params{P0: 0.5, Beta0: 1.0 / 3.0, Seed: 1, N: 500, Horizon: 4000},
		FieldP0|FieldBeta0|FieldSeed|FieldN|FieldHorizon|FieldSample, runBounceMC))
	Default.MustRegister(NewScenario(ScenarioFig7Search,
		"Bisection for the minimal beta0 crossing 1/3 on both branches (Figure 7)",
		Params{P0: 0.5, N: 10000, Horizon: 9000},
		FieldP0|FieldN|FieldHorizon, runFig7Search))

	Default.MustRegister(NewScenario(ScenarioAnalyticConflict,
		"Continuous-model conflicting finalization (mode: honest, slashing, semi)",
		Params{P0: 0.5, Mode: "honest"},
		FieldP0|FieldBeta0|FieldMode, runAnalyticConflict))
	Default.MustRegister(NewScenario(ScenarioAnalyticBounce,
		"Equation 24 bouncing probability and the Equation 14 window",
		Params{P0: 0.5, Beta0: 1.0 / 3.0, Horizon: 4000},
		FieldP0|FieldBeta0|FieldHorizon, runAnalyticBounce))
	Default.MustRegister(NewScenario(ScenarioAnalyticThreshold,
		"Equation 13 minimal beta0 reaching 1/3 (mode: paper, continuous)",
		Params{P0: 0.5, Mode: "paper"},
		FieldP0|FieldMode, runAnalyticThreshold))
}

// paperRow declares one of Table 1's aggregate scenarios as data: one
// LeakSim strategy at paper scale (paperN validators, paperHorizon epochs)
// set beside its continuous-model anchor. run executes every row.
type paperRow struct {
	name, desc string
	defaults   Params
	// reads declares the dimensions the row reads (NewScenario).
	reads Field
	mode  core.ByzMode
	// delay has the Byzantine validators delay finalization until the
	// honest inactive validators are ejected: the row then conflicts
	// nowhere, is set beside the ejection epoch instead of anchor, and
	// reports the epoch and size of the Byzantine peak.
	delay bool
	// anchor is the behaviour whose conflicting-finalization epoch the
	// row's conflict epoch is set beside.
	anchor  analytic.Behavior
	outcome string
}

// paperN and paperHorizon scale the Table 1 rows: results are
// proportion-driven, so any reasonably large N reproduces the paper, and
// the slowest outcome lands at 4686 (semi-active ejection at 7653).
const paperN, paperHorizon = 10000, 9000

// paperRows are Table 1's aggregate scenarios, 5.1 to 5.2.3.
var paperRows = [...]paperRow{
	{name: ScenarioPartition, desc: "All honest, lasting partition",
		defaults: Params{P0: 0.5}, reads: FieldP0,
		mode: core.ByzAbsent, anchor: analytic.HonestOnly, outcome: "2 finalized branches"},
	{name: ScenarioDoubleVote, desc: "Byzantine double vote (slashable)",
		defaults: Params{P0: 0.5, Beta0: 0.2}, reads: FieldP0 | FieldBeta0,
		mode: core.ByzDoubleVote, anchor: analytic.WithSlashing, outcome: "2 finalized branches"},
	{name: ScenarioSemiActive, desc: "Byzantine semi-active (non-slashable)",
		defaults: Params{P0: 0.5, Beta0: 0.2}, reads: FieldP0 | FieldBeta0,
		mode: core.ByzSemiActive, anchor: analytic.WithoutSlashing, outcome: "2 finalized branches"},
	delayRow,
}

// delayRow is Scenario 5.2.3, whose run is also the corner case's probe
// (5.2.3c).
var delayRow = paperRow{name: ScenarioDelay, desc: "Byzantine delay finalization",
	defaults: Params{P0: 0.5, Beta0: 0.25}, reads: FieldP0 | FieldBeta0,
	mode: core.ByzSemiActive, delay: true, outcome: "beta > 1/3"}

// leakSim is the row's LeakSim at p's split and Byzantine stake; p arrives
// resolved, so a row that does not read beta0 (5.1, all honest) has none.
func (r *paperRow) leakSim(p Params) core.LeakSim {
	return core.LeakSim{N: paperN, P0: p.P0, Beta0: p.Beta0, Mode: r.mode, DelayFinalization: r.delay}
}

// run runs the row's LeakSim and sets its outcome beside the row's anchor.
func (r *paperRow) run(ctx context.Context, p Params) (Result, error) {
	paper := analytic.PaperParams()
	s := core.Summary{Outcome: r.outcome, AnalyticEpoch: paper.EjectionEpoch}
	if !r.delay {
		bc, err := paper.ConflictingFinalization(r.anchor, p.P0, p.Beta0)
		if err != nil {
			return Result{}, fmt.Errorf("engine: scenario %s: %w", r.name, err)
		}
		s.AnalyticEpoch = bc.ConflictEpoch
	}
	res, err := r.leakSim(p).RunContext(ctx, paperHorizon, 0)
	if err != nil {
		return Result{}, fmt.Errorf("engine: scenario %s: %w", r.name, err)
	}
	s.SimEpoch = res.ConflictEpoch
	if r.delay {
		s.PeakByzProportion, s.SimEpoch = res.Peak()
		s.CrossedOneThird = res.CrossedOneThird
	}
	return summaryResult(s), nil
}

// summaryResult converts a core scenario summary to a Result.
func summaryResult(s core.Summary) Result {
	return Result{
		Outcome: s.Outcome,
		Metrics: []Metric{
			{Name: "analytic_epoch", Value: s.AnalyticEpoch},
			{Name: "sim_epoch", Value: float64(s.SimEpoch)},
			{Name: "peak_byz_proportion", Value: s.PeakByzProportion},
			{Name: "crossed_one_third", Value: boolMetric(s.CrossedOneThird)},
		},
	}
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// leakMode maps a Params.Mode string to a LeakSim strategy.
func leakMode(mode string) (core.ByzMode, bool, error) {
	switch mode {
	case "", "absent":
		return core.ByzAbsent, false, nil
	case "absent-delay":
		return core.ByzAbsent, true, nil
	case "double":
		return core.ByzDoubleVote, false, nil
	case "semi":
		return core.ByzSemiActive, false, nil
	case "semi-delay":
		return core.ByzSemiActive, true, nil
	default:
		return 0, false, fmt.Errorf("engine: unknown leaksim mode %q (want absent, absent-delay, double, semi, semi-delay)", mode)
	}
}

func runLeakSim(ctx context.Context, p Params) (Result, error) {
	mode, delay, err := leakMode(p.Mode)
	if err != nil {
		return Result{}, err
	}
	ls := core.LeakSim{N: p.N, P0: p.P0, Beta0: p.Beta0, Mode: mode, DelayFinalization: delay}
	res, err := ls.RunContext(ctx, p.Horizon, p.Sample)
	if err != nil {
		return Result{}, err
	}
	out := Result{
		Metrics: []Metric{
			{Name: "conflict_epoch", Value: float64(res.ConflictEpoch)},
			{Name: "threshold_epoch_a", Value: float64(res.A.ThresholdEpoch)},
			{Name: "threshold_epoch_b", Value: float64(res.B.ThresholdEpoch)},
			{Name: "ejection_epoch_a", Value: float64(res.A.EjectionEpoch)},
			{Name: "ejection_epoch_b", Value: float64(res.B.EjectionEpoch)},
			{Name: "peak_byz_a", Value: res.A.PeakByzProportion},
			{Name: "peak_byz_b", Value: res.B.PeakByzProportion},
			{Name: "crossed_one_third", Value: boolMetric(res.CrossedOneThird)},
		},
	}
	if p.Sample > 0 {
		out.CurveName = "active_ratio_a"
		out.Curve = make([]CurvePoint, 0, len(res.A.Trace))
		for _, tr := range res.A.Trace {
			out.Curve = append(out.Curve, CurvePoint{X: float64(tr.Epoch), Y: tr.ActiveRatio})
		}
	}
	return out, nil
}

func runBounceMC(ctx context.Context, p Params) (Result, error) {
	mc := core.BounceMC{NHonest: p.N, Beta0: p.Beta0, P0: p.P0, Seed: p.Seed}
	model := analytic.BounceModel{P0: p.P0}
	params := analytic.PaperParams()
	if p.Sample > 0 {
		samples, crossedAt, err := mc.RunContext(ctx, p.Horizon, p.Sample)
		if err != nil {
			return Result{}, err
		}
		out := Result{
			Metrics: []Metric{
				{Name: "crossed_epoch", Value: float64(crossedAt)},
			},
			CurveName: "frac_below_a",
		}
		for _, s := range samples {
			// Run also inserts an extra sample at the crossing epoch;
			// keep only the aligned grid so curves average cell-wise.
			if uint64(s.Epoch)%uint64(p.Sample) == 0 {
				out.Curve = append(out.Curve, CurvePoint{X: float64(s.Epoch), Y: s.FracBelowA})
			}
		}
		return out, nil
	}
	probs, err := mc.ExceedProbabilityContext(ctx, []types.Epoch{types.Epoch(p.Horizon)}, 1)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Metrics: []Metric{
			{Name: "mc_probability", Value: probs[0]},
			{Name: "eq24_probability", Value: model.ExceedProbability(float64(p.Horizon), p.Beta0, params)},
		},
	}, nil
}

// runFig7Search bisects over full LeakSim runs for the minimal beta0 whose
// Byzantine proportion crosses 1/3 on both branches at the given p0
// (Figure 7's simulated boundary).
func runFig7Search(ctx context.Context, p Params) (Result, error) {
	lo, hi := 0.01, 0.40
	for iter := 0; iter < 12; iter++ {
		mid := (lo + hi) / 2
		ls := core.LeakSim{N: p.N, P0: p.P0, Beta0: mid,
			Mode: core.ByzSemiActive, DelayFinalization: true}
		res, err := ls.RunContext(ctx, p.Horizon, 0)
		if err != nil {
			return Result{}, fmt.Errorf("engine: fig7 search at p0=%v beta0=%v: %w", p.P0, mid, err)
		}
		if res.CrossedOneThird {
			hi = mid
		} else {
			lo = mid
		}
	}
	params := analytic.ContinuousParams()
	an := math.Max(params.ThresholdBeta0(p.P0), params.ThresholdBeta0(1-p.P0))
	return Result{
		Metrics: []Metric{
			{Name: "sim_threshold", Value: (lo + hi) / 2},
			{Name: "analytic_threshold", Value: an},
		},
	}, nil
}

func runAnalyticConflict(_ context.Context, p Params) (Result, error) {
	var behavior analytic.Behavior
	switch p.Mode {
	case "", "honest":
		behavior = analytic.HonestOnly
	case "slashing":
		behavior = analytic.WithSlashing
	case "semi":
		behavior = analytic.WithoutSlashing
	default:
		return Result{}, fmt.Errorf("engine: unknown analytic/conflict mode %q (want honest, slashing, semi)", p.Mode)
	}
	bc, err := analytic.PaperParams().ConflictingFinalization(behavior, p.P0, p.Beta0)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Metrics: []Metric{
			{Name: "conflict_epoch", Value: bc.ConflictEpoch},
			{Name: "threshold_epoch_a", Value: bc.ThresholdA},
			{Name: "threshold_epoch_b", Value: bc.ThresholdB},
		},
	}, nil
}

func runAnalyticBounce(_ context.Context, p Params) (Result, error) {
	model := analytic.BounceModel{P0: p.P0}
	lo, hi := analytic.BounceWindow(p.Beta0)
	return Result{
		Metrics: []Metric{
			{Name: "eq24_probability", Value: model.ExceedProbability(float64(p.Horizon), p.Beta0, analytic.PaperParams())},
			{Name: "window_lo", Value: lo},
			{Name: "window_hi", Value: hi},
			{Name: "in_window", Value: boolMetric(lo < p.P0 && p.P0 < hi)},
		},
	}, nil
}

func runAnalyticThreshold(_ context.Context, p Params) (Result, error) {
	var params analytic.Params
	switch p.Mode {
	case "", "paper":
		params = analytic.PaperParams()
	case "continuous":
		params = analytic.ContinuousParams()
	default:
		return Result{}, fmt.Errorf("engine: unknown analytic/threshold mode %q (want paper, continuous)", p.Mode)
	}
	own := params.ThresholdBeta0(p.P0)
	other := params.ThresholdBeta0(1 - p.P0)
	return Result{
		Metrics: []Metric{
			{Name: "threshold_branch_p0", Value: own},
			{Name: "threshold_branch_1_minus_p0", Value: other},
			{Name: "threshold_both_branches", Value: math.Max(own, other)},
		},
	}, nil
}
