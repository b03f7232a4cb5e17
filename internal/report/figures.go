package report

import (
	"context"
	"fmt"

	"repro/internal/analytic"
	"repro/internal/engine"
	"repro/internal/mathx"
)

// Figure2 regenerates the paper's Figure 2: the three stake trajectories
// (active, semi-active, inactive) over the leak, with ejection applied at
// each law's crossing of 16.75 ETH.
func Figure2() *Figure {
	x := mathx.Linspace(0, 8000, 801)
	f := &Figure{Title: "Figure 2: stake trajectories during an inactivity leak", XName: "epoch", X: x}
	active := make([]float64, len(x))
	semi := make([]float64, len(x))
	inactive := make([]float64, len(x))
	semiEject := analytic.SemiActiveEjectionCrossing()
	inactiveEject := analytic.InactiveEjectionCrossing()
	for i, t := range x {
		active[i] = analytic.StakeActive(t)
		if t < semiEject {
			semi[i] = analytic.StakeSemiActive(t)
		}
		if t < inactiveEject {
			inactive[i] = analytic.StakeInactive(t)
		}
	}
	mustAdd(f, "active", active)
	mustAdd(f, "semi_active", semi)
	mustAdd(f, "inactive", inactive)
	return f
}

// Figure3 regenerates Figure 3: the active-stake ratio during a leak for
// p0 in {0.2, 0.3, 0.4, 0.5, 0.6}, paper-anchored ejection at 4685.
func Figure3() *Figure {
	x := mathx.Linspace(0, 8000, 801)
	f := &Figure{Title: "Figure 3: ratio of active validators vs p0", XName: "epoch", X: x}
	params := analytic.PaperParams()
	for _, p0 := range []float64{0.6, 0.5, 0.4, 0.3, 0.2} {
		ys := make([]float64, len(x))
		for i, t := range x {
			ys[i] = params.ActiveRatioHonest(t, p0)
		}
		mustAdd(f, fmt.Sprintf("p0_%.1f", p0), ys)
	}
	return f
}

// Figure3Sim overlays the exact integer simulation on Figure 3's grid: for
// each p0, the per-epoch active-stake ratio of the branch, sampled every
// `every` epochs. The p0 cells run per opt.Workers
// (<= 0 = all CPUs).
func Figure3Sim(ctx context.Context, every int, opt engine.Options) (*Figure, error) {
	if every <= 0 {
		every = 10
	}
	const horizon = 8000
	nSamples := horizon / every
	x := make([]float64, nSamples)
	for i := range x {
		x[i] = float64((i + 1) * every)
	}
	f := &Figure{Title: "Figure 3 (integer simulation): ratio of active validators", XName: "epoch", X: x}
	p0s := []float64{0.6, 0.5, 0.4, 0.3, 0.2}
	cells := make([]engine.Cell, 0, len(p0s))
	for _, p0 := range p0s {
		cells = append(cells, engine.Cell{Scenario: engine.ScenarioLeakSim, Params: engine.Params{
			P0: p0, Mode: "absent-delay", N: 10000, Horizon: horizon, Sample: every,
		}})
	}
	results := engine.SweepContext(ctx, cells, opt)
	if err := engine.FirstError(results); err != nil {
		return nil, fmt.Errorf("report: figure 3 sim: %w", err)
	}
	for i, p0 := range p0s {
		ys := make([]float64, nSamples)
		for j := range ys {
			if j < len(results[i].Curve) {
				ys[j] = results[i].Curve[j].Y
			} else {
				ys[j] = 1
			}
		}
		if err := f.Add(fmt.Sprintf("p0_%.1f", p0), ys); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Figure7Sim overlays the integer simulation on Figure 7: for each p0 on
// the grid, the minimal beta0 (found by bisection over full scenario runs)
// whose Byzantine proportion crosses 1/3 on both branches. The per-p0
// bisections run per opt.Workers (<= 0 = all CPUs).
func Figure7Sim(ctx context.Context, points int, opt engine.Options) (*Figure, error) {
	if points <= 0 {
		points = 9
	}
	x := mathx.Linspace(0.1, 0.9, points)
	f := &Figure{Title: "Figure 7 (integer simulation): minimal beta0 crossing 1/3 on both branches", XName: "p0", X: x}
	cells := make([]engine.Cell, 0, len(x))
	for _, p0 := range x {
		cells = append(cells, engine.Cell{Scenario: engine.ScenarioFig7Search, Params: engine.Params{
			P0: p0, N: 10000, Horizon: 9000,
		}})
	}
	results := engine.SweepContext(ctx, cells, opt)
	if err := engine.FirstError(results); err != nil {
		return nil, fmt.Errorf("report: figure 7 sim: %w", err)
	}
	ys := make([]float64, len(x))
	analyticYs := make([]float64, len(x))
	for i, r := range results {
		ys[i], _ = r.Metric("sim_threshold")
		analyticYs[i], _ = r.Metric("analytic_threshold")
	}
	if err := f.Add("sim_threshold_both_branches", ys); err != nil {
		return nil, err
	}
	if err := f.Add("analytic_threshold_both_branches", analyticYs); err != nil {
		return nil, err
	}
	return f, nil
}

// Figure6 regenerates Figure 6: the conflicting-finalization epoch vs beta0
// for the slashing and non-slashing behaviors (p0 = 0.5).
func Figure6() (*Figure, error) {
	x := mathx.Linspace(0, 0.33, 100)
	f := &Figure{Title: "Figure 6: time to conflicting finalization vs beta0", XName: "beta0", X: x}
	params := analytic.PaperParams()
	slash := make([]float64, len(x))
	semi := make([]float64, len(x))
	for i, b := range x {
		if b == 0 {
			slash[i] = params.ConflictEpochHonest(0.5)
			semi[i] = slash[i]
			continue
		}
		slash[i] = params.ConflictEpochSlashing(0.5, b)
		s, err := params.ConflictEpochSemiActive(0.5, b)
		if err != nil {
			return nil, fmt.Errorf("report: figure 6 at beta0=%v: %w", b, err)
		}
		semi[i] = s
	}
	mustAdd(f, "with_slashing", slash)
	mustAdd(f, "without_slashing", semi)
	return f, nil
}

// Figure7 regenerates Figure 7: for each p0, the minimal beta0 whose
// maximum proportion reaches 1/3 on the p0 branch and on the 1-p0 branch;
// the region above both curves is where Byzantine validators can exceed
// 1/3 on both branches simultaneously.
func Figure7() *Figure {
	x := mathx.Linspace(0.01, 0.99, 99)
	f := &Figure{Title: "Figure 7: (p0, beta0) pairs with beta_max >= 1/3", XName: "p0", X: x}
	params := analytic.PaperParams()
	own := make([]float64, len(x))
	other := make([]float64, len(x))
	both := make([]float64, len(x))
	for i, p0 := range x {
		own[i] = params.ThresholdBeta0(p0)
		other[i] = params.ThresholdBeta0(1 - p0)
		both[i] = own[i]
		if other[i] > both[i] {
			both[i] = other[i]
		}
	}
	mustAdd(f, "threshold_branch_p0", own)
	mustAdd(f, "threshold_branch_1_minus_p0", other)
	mustAdd(f, "threshold_both_branches", both)
	return f
}

// Figure9 regenerates Figure 9: the censored stake distribution of an
// honest validator under the bouncing attack at the given epoch
// (the paper uses t = 4024).
func Figure9(t float64) *Figure {
	m := analytic.BounceModel{P0: 0.5}
	d := m.Distribution(t)
	x := mathx.Linspace(0, 33, 331)
	f := &Figure{Title: fmt.Sprintf("Figure 9: stake distribution at t=%g", t), XName: "stake_eth", X: x}
	density := make([]float64, len(x))
	cdf := make([]float64, len(x))
	for i, s := range x {
		density[i] = d.Interior(s)
		cdf[i] = m.CensoredStakeCDF(s, t)
	}
	mustAdd(f, "interior_density", density)
	mustAdd(f, "censored_cdf", cdf)
	atoms := make([]float64, len(x))
	for i, s := range x {
		switch {
		case s == 0:
			atoms[i] = d.AtomEjected
		case s >= 32 && (i == 0 || x[i-1] < 32):
			atoms[i] = d.AtomCapped
		}
	}
	mustAdd(f, "atom_mass", atoms)
	return f
}

// Figure10 regenerates Figure 10: the Equation 24 probability of the
// Byzantine proportion exceeding 1/3 over time for several beta0.
func Figure10() *Figure {
	x := mathx.Linspace(0, 8000, 801)
	f := &Figure{Title: "Figure 10: P[beta > 1/3] during the bouncing attack", XName: "epoch", X: x}
	m := analytic.BounceModel{P0: 0.5}
	params := analytic.PaperParams()
	for _, beta0 := range []float64{1.0 / 3.0, 0.3333, 0.333, 0.33, 0.329, 0.3} {
		ys := make([]float64, len(x))
		for i, t := range x {
			if t == 0 {
				continue
			}
			ys[i] = m.ExceedProbability(t, beta0, params)
		}
		mustAdd(f, fmt.Sprintf("beta0_%.4f", beta0), ys)
	}
	return f
}

// Figure10MonteCarlo overlays the exact integer Monte-Carlo estimate on
// Figure 10's grid for one beta0: `runs` independent trajectories (one
// bounce-mc sweep cell each, seeds derived per cell) averaged pointwise,
// run per opt.Workers (<= 0 = all CPUs).
func Figure10MonteCarlo(ctx context.Context, beta0 float64, nHonest, runs int, seed int64, opt engine.Options) (*Figure, error) {
	const sample, horizon = 1000, 7000
	// Zero would silently resolve to the scenario default inside the
	// engine while the analytic overlay uses the raw value.
	if runs <= 0 || beta0 <= 0 || beta0 >= 1 {
		return nil, fmt.Errorf("report: figure 10 monte carlo: runs=%d beta0=%v, want runs > 0 and beta0 in (0, 1)", runs, beta0)
	}
	g := engine.BounceMCGrid(0.5, beta0, nHonest, runs, seed, sample, horizon)
	results := engine.SweepContext(ctx, g.Cells(), opt)
	if err := engine.FirstError(results); err != nil {
		return nil, fmt.Errorf("report: figure 10 monte carlo: %w", err)
	}
	nPoints := horizon / sample
	x := make([]float64, nPoints)
	probs := make([]float64, nPoints)
	for i := range x {
		x[i] = float64((i + 1) * sample)
	}
	for _, r := range results {
		for _, pt := range r.Curve {
			if i := int(pt.X)/sample - 1; i >= 0 && i < nPoints {
				probs[i] += pt.Y / float64(runs)
			}
		}
	}
	analyticYs := make([]float64, nPoints)
	m := analytic.BounceModel{P0: 0.5}
	params := analytic.PaperParams()
	for i, e := range x {
		analyticYs[i] = m.ExceedProbability(e, beta0, params)
	}
	f := &Figure{
		Title: fmt.Sprintf("Figure 10 (Monte-Carlo vs Equation 24) beta0=%g", beta0),
		XName: "epoch", X: x,
	}
	mustAdd(f, "monte_carlo", probs)
	mustAdd(f, "equation_24", analyticYs)
	return f, nil
}

// Table1 renders the scenario overview (paper Table 1) with both analytic
// and simulated conflict epochs, running the five scenario cells per
// opt.Workers (<= 0 = all CPUs) through opt.Registry (nil = the default),
// whose descriptions name the rows. A row whose scenario reports no epoch
// (5.3's outcome is a probability) shows "-" there.
func Table1(ctx context.Context, seed int64, opt engine.Options) (*Table, error) {
	results := engine.SweepContext(ctx, engine.Table1Cells(seed), opt)
	if err := engine.FirstError(results); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table 1: scenarios and outcomes",
		Headers: []string{"scenario", "name", "p0", "beta0", "outcome", "analytic", "simulated"},
	}
	reg := opt.Registry
	if reg == nil {
		reg = engine.Default
	}
	for _, r := range results {
		name := ""
		if s, ok := reg.Lookup(r.Scenario); ok {
			name = s.Description()
		}
		an, simEpoch := "-", "-"
		if v, ok := r.Metric("analytic_epoch"); ok {
			an = fmt.Sprintf("%.1f", v)
		}
		if v, ok := r.Metric("sim_epoch"); ok {
			simEpoch = fmt.Sprintf("%d", int(v))
		}
		t.AddRow(r.Scenario, name,
			fmt.Sprintf("%.2f", r.Params.P0),
			fmt.Sprintf("%.4f", r.Params.Beta0),
			r.Outcome, an, simEpoch)
	}
	return t, nil
}

// betaTables titles the paper's Tables 2 and 3 and heads their analytic
// column.
var betaTables = map[int][2]string{
	2: {"Table 2: epochs to conflicting finalization, double-voting Byzantine (p0=0.5)", "analytic (Eq 9)"},
	3: {"Table 3: epochs to conflicting finalization, semi-active Byzantine (p0=0.5)", "analytic (Eq 10)"},
}

// BetaTable renders the paper's Table 2 (n = 2, slashing behavior) or
// Table 3 (n = 3, semi-active behavior) from their Claims: per beta0 row,
// the paper value, the continuous model, and the exact integer
// simulation. The integer cells run per opt.Workers (<= 0 = all CPUs).
func BetaTable(ctx context.Context, n int, opt engine.Options) (*Table, error) {
	head, ok := betaTables[n]
	if !ok {
		return nil, fmt.Errorf("report: no beta0 table %d (want 2 or 3)", n)
	}
	results := engine.SweepContext(ctx, TableCells(n), opt)
	if err := engine.FirstError(results); err != nil {
		return nil, fmt.Errorf("report: table %d: %w", n, err)
	}
	t := &Table{Title: head[0], Headers: []string{"beta0", "paper", head[1], "integer sim"}}
	var i int
	for _, c := range Claims {
		if c.Artifact != fmt.Sprintf("Table %d", n) {
			continue
		}
		an, err := c.By[0].Value(ctx, opt)
		if err != nil {
			return nil, fmt.Errorf("report: table %d at %s: %w", n, c.Row, err)
		}
		simEpoch, _ := results[i].Metric(c.By[1].Metric)
		t.AddRow(
			fmt.Sprintf("%.2f", results[i].Params.Beta0),
			fmt.Sprintf("%d", int(c.Paper)),
			fmt.Sprintf("%d", int(an)),
			fmt.Sprintf("%d", int(simEpoch)),
		)
		i++
	}
	return t, nil
}

func mustAdd(f *Figure, name string, values []float64) {
	if err := f.Add(name, values); err != nil {
		// Series lengths are fixed by construction in this package; a
		// mismatch is a programming error.
		panic(err)
	}
}
