package engine

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/analytic"
	"repro/internal/behavior"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/types"
)

// Registry names of the view-cohort protocol-simulator scenarios. They run
// the FULL protocol (block tree, LMD-GHOST, Casper FFG, attestation pool,
// slashing, inactivity leak) at paper-scale validator counts, which the
// cohort kernel makes affordable; registering here is all the plumbing
// they need — the HTTP server lists them, the client sweeps them, and the
// CLIs run them with no further wiring.
const (
	// ScenarioSimPartition is the mechanism-level form of Table 1 Scenario
	// 5.1: a p0 partition that never heals, under a compressed spec, run to
	// the first finality-safety violation.
	ScenarioSimPartition = "sim/partition"
	// ScenarioSimBounce is the node-level probabilistic bouncing attack
	// (paper Section 5.3) at paper scale: a pre-GST fork, then per-epoch
	// duty-view placement with stay-probability p0.
	ScenarioSimBounce = "sim/bounce"
	// ScenarioSimDrops is the message-loss robustness sweep: a
	// synchronous multi-partition population under link outages of the
	// given rate.
	ScenarioSimDrops = "sim/drops"
	// ScenarioSimGST is the partition-heal sweep: a 50/50 partition that
	// heals at the gst epoch, probing how late healing can come before
	// the leak finalizes conflicting branches.
	ScenarioSimGST = "sim/gst"
	// ScenarioSimLeak is the paper's Table 1 Scenario 5.1 at FULL
	// protocol and FULL spec: a lasting p0 partition of n validators,
	// run under the real inactivity-penalty quotient (2^26) until the
	// two branches finalize conflicting checkpoints — thousands of
	// epochs, the long-horizon run the columnar epoch transition exists
	// for. Reports the measured conflict epoch against the continuous
	// analytic anchor (Equation 6: 4662 at p0 = 0.5).
	ScenarioSimLeak = "sim/leak"
	// ScenarioSimSemiActive is Table 3 at full protocol: semi-active
	// Byzantine validators alternate branches each epoch (never
	// slashable), accelerating both branches' quorum recovery, and
	// finalize both branches as soon as alternation justifies on each —
	// the AutoFinalize gait.
	ScenarioSimSemiActive = "sim/semiactive"
)

func init() {
	// The one runner behind every row of simRows makes each forkable and
	// checkpointable, so sweeps can fan their cells out from shared prefixes
	// and long runs can resume.
	for i := range simRows {
		Default.MustRegister(&simScenario{row: &simRows[i]})
	}
}

// simMeta stamps a simulation result with its sustained throughput —
// simulated epochs per wall-clock second — so sweep and server consumers
// see a cell's cost without running benchmarks. Serving layers merge
// their own duration/cache fields on top (RunMeta.Merged) rather than
// overwriting this. On a warm-started cell the epoch count spans the whole
// run (restored prefix included) while the elapsed time covers only the
// resumed tail, so the figure reads as effective throughput including the
// epochs the snapshot saved. A cell that stepped no epoch — read off a
// prefix already standing at or past its horizon — reports none.
func simMeta(s *sim.Simulation, elapsed time.Duration) *RunMeta {
	st := s.Stats()
	meta := &RunMeta{
		Sim: &SimStats{
			TreeNodes:    st.Tree.Nodes,
			TreeSegments: st.Tree.Segments,
			TreeFolded:   st.Tree.Folded,
			TreeBytes:    st.Tree.Bytes,
			OracleNodes:  st.Oracle.Nodes,
			EngineBytes:  st.Engine.Bytes,
			LaneEpochs:   st.LaneEpochs,
		},
	}
	epochs := float64(simulatedEpochs(s))
	if secs := elapsed.Seconds(); secs > 0 && epochs > 0 {
		meta.EpochsPerSec = epochs / secs
	}
	return meta
}

// simulatedEpochs counts the whole epochs the simulation has run.
func simulatedEpochs(s *sim.Simulation) int {
	return int(uint64(s.Slot()) / s.Cfg.Spec.SlotsPerEpoch)
}

// simRow declares one forkable protocol-simulator scenario as data. The one
// runner in sim_fork.go (simScenario) executes every row — straight through
// from genesis, as a prefix shared by a group of sweep cells, or resumed
// from such a prefix — so a new scenario is one more row here, not another
// set of run/fork/resume/codec functions.
type simRow struct {
	name, desc string
	defaults   Params
	// reads declares the dimensions the row reads (NewScenario).
	reads Field
	// validate rejects parameters the scenario cannot run.
	validate func(p Params) error
	// config describes the cell's own simulation (its real heal slot), its
	// adversary included: a resumed cell decodes the prefix's adversary
	// state into that adversary (sim.Snapshot).
	config func(p Params) sim.Config
	// branch is the branch rule.
	branch branchRule
	// newTrace starts the per-epoch observations at genesis, and is what
	// DecodePrefix walks a blob's trace into.
	newTrace func() simTrace
	// finish assembles the Result (Meta aside) from the end-of-run state.
	finish func(ctx context.Context, p Params, s *sim.Simulation, tr simTrace) (Result, error)
}

// branchRule says where a row's cells part from the cells they share a
// prefix with.
type branchRule uint8

const (
	// branchAtHorizon: cells equal in every dimension but horizon simulate
	// identically, so a cell branches at its own horizon and a shorter
	// cell's full run doubles as a longer cell's prefix.
	branchAtHorizon branchRule = iota
	// branchAtGST: cells also share their pre-heal epochs across gst values
	// — the branch is min(gst, horizon), gst stays out of the prefix key,
	// the shared prefix runs under network.FarFuture (held cross-partition
	// traffic retained) and each resume retargets the held band onto the
	// cell's own heal slot.
	branchAtGST
	// branchNone: the run reads its horizon before it ends, so cells share
	// nothing; horizon stays in the prefix key and a cell's prefix is its
	// own run, which warm starts and checkpoints still resume.
	branchNone
)

// simTrace accumulates what a row observes epoch by epoch — everything a
// run from genesis would have gathered over a prefix's epochs, so a resumed
// cell's Result is bit-identical to the uninterrupted run's. A trace on a
// published Prefix is immutable: continuations clone it first.
type simTrace interface {
	// observe records the boundary ending the given epoch; false concludes
	// the run there.
	observe(s *sim.Simulation, p Params, epoch int) bool
	// concluded is the epoch at which observe concluded the run (0 = not
	// yet); a prefix that concluded is Done at that epoch.
	concluded() int
	// clone deep-copies the trace, so two continuations of one prefix never
	// share a backing array.
	clone() simTrace
	// walk moves the trace in a prefix blob.
	walk(c *codec.Coder)
}

// simDims are the dimensions every protocol-simulator population reads: its
// split, size, run length and seed.
const simDims = FieldP0 | FieldN | FieldHorizon | FieldSeed

// simRows is the table of forkable protocol-simulator scenarios. sim/drops
// defaults rate to 0 (the lossless baseline) and sim/gst defaults gst to 0
// (heal immediately); since defaulting is set-aware (Params.Explicit) a
// zero default is a choice, not a necessity: an explicit rate=0 or gst=0
// cell survives even against a non-zero default.
var simRows = []simRow{
	{
		name:     ScenarioSimBounce,
		desc:     "Full-protocol probabilistic bouncing attack at paper scale (p0 = stay probability, gst = setup epochs)",
		defaults: Params{P0: 0.7, Beta0: 0.25, N: 10000, Horizon: 24, Seed: 19, GST: 3},
		reads:    simDims | FieldBeta0 | FieldGST,
		validate: validateSimBounce,
		config:   simBounceConfig,
		branch:   branchNone,
		newTrace: func() simTrace { return &bounceTrace{minStakeRatio: 1} },
		finish:   finishSimBounce,
	},
	{
		name:     ScenarioSimPartition,
		desc:     "Full protocol simulator: partitioned network until a finality-safety violation",
		defaults: Params{P0: 0.5, N: 16, Horizon: 40, Seed: 3},
		reads:    simDims,
		// Every cell is run: sim.New rejects the populations it cannot build.
		validate: func(Params) error { return nil },
		config:   partitionConfig,
		newTrace: func() simTrace { return &gstTrace{} },
		finish:   finishSimPartition,
	},
	{
		name:     ScenarioSimDrops,
		desc:     "Full-protocol link-outage robustness: synchronous 8-partition population under drop rate (rate=0 is the lossless baseline)",
		defaults: Params{P0: 0.5, N: 1000, Horizon: 10, Seed: 1},
		// The eight-way population ignores p0, but every sim/drops result
		// has always carried its default 0.5, so p0 stays declared.
		reads:    simDims | FieldRate,
		validate: validateSimDrops,
		config:   simDropsConfig,
		newTrace: func() simTrace { return noTrace{} },
		finish:   finishSimDrops,
	},
	{
		name:     ScenarioSimGST,
		desc:     "Full-protocol partition heal: 50/50 split healing at the gst epoch (gst=0 is the no-partition baseline)",
		defaults: Params{P0: 0.5, N: 1000, Horizon: 16, Seed: 3},
		reads:    simDims | FieldGST,
		validate: func(p Params) error {
			if p.GST < 0 {
				return fmt.Errorf("engine: sim/gst wants gst >= 0, got %d", p.GST)
			}
			return nil
		},
		config:   simGSTConfig,
		branch:   branchAtGST,
		newTrace: func() simTrace { return &gstTrace{} },
		finish:   finishSimGST,
	},
	{
		name:     ScenarioSimLeak,
		desc:     "Table 1 Scenario 5.1 at full protocol, the paper's incentive model: lasting partition run to conflicting finalization (analytic anchor 4662 at p0=0.5)",
		defaults: Params{P0: 0.5, N: 10000, Horizon: 6000, Seed: 1},
		reads:    simDims | FieldSample,
		validate: validateSimLeak,
		config:   func(p Params) sim.Config { return leakPartitionConfig(p, nil) },
		newTrace: func() simTrace { return &leakTrace{minStakeRatio: 1} },
		finish:   finishSimLeak,
	},
	{
		name:     ScenarioSimSemiActive,
		desc:     "Table 3 at full protocol, the paper's incentive model: semi-active Byzantine validators accelerate the leak and finalize both branches",
		defaults: Params{P0: 0.5, Beta0: 0.33, N: 10000, Horizon: 2000, Seed: 1},
		reads:    simDims | FieldBeta0 | FieldSample,
		validate: validateSimSemiActive,
		config:   simSemiActiveConfig,
		newTrace: func() simTrace { return &leakTrace{minStakeRatio: 1} },
		finish:   finishSimSemiActive,
	},
}

// noTrace is the trace of a row whose Result reads off the end state alone.
type noTrace struct{}

func (noTrace) observe(*sim.Simulation, Params, int) bool { return true }
func (noTrace) concluded() int                            { return 0 }
func (noTrace) clone() simTrace                           { return noTrace{} }
func (noTrace) walk(*codec.Coder)                         {}

// validateSimDrops rejects parameters the drops scenario cannot run.
func validateSimDrops(p Params) error {
	if p.Horizon < 4 {
		return fmt.Errorf("engine: sim/drops wants horizon >= 4 (finality needs a runway), got %d", p.Horizon)
	}
	if p.Rate < 0 || p.Rate >= 1 {
		return fmt.Errorf("engine: sim/drops wants 0 <= rate < 1, got %v", p.Rate)
	}
	return nil
}

// simDropsConfig describes the drops population: synchronous (GST zero),
// spread over eight partitions whose cross-partition links suffer outages
// at p.Rate.
func simDropsConfig(p Params) sim.Config {
	parts := min(8, p.N)
	return sim.Config{
		Validators:  p.N,
		Spec:        types.DefaultSpec(),
		Delay:       1,
		Seed:        p.Seed,
		DropRate:    p.Rate,
		PartitionOf: func(v types.ValidatorIndex) int { return int(v) % parts },
	}
}

// finishSimDrops reports how far finality lags the healthy two-epoch
// trail, from the end-of-horizon state.
func finishSimDrops(_ context.Context, p Params, s *sim.Simulation, _ simTrace) (Result, error) {
	final := s.MetricsAt(types.Epoch(p.Horizon))
	minFin, maxFin := final.MinFinalized, final.MaxFinalized
	// On a lossless run the last processed boundary (start of epoch h-1)
	// has finalized epoch h-3; anything lower is loss-induced lag.
	lag := 0.0
	if healthy := types.Epoch(p.Horizon - 3); minFin < healthy {
		lag = float64(healthy - minFin)
	}
	sent, delayed := s.Net.Stats()
	out := Result{
		Metrics: []Metric{
			{Name: "min_finalized", Value: float64(minFin)},
			{Name: "max_finalized", Value: float64(maxFin)},
			{Name: "finality_lag", Value: lag},
			{Name: "msgs_sent", Value: float64(sent)},
			{Name: "msgs_delayed", Value: float64(delayed)},
		},
	}
	if lag == 0 {
		out.Outcome = "finality unharmed"
	}
	return out, nil
}

// splitAt is the two-way partition of a population: validators below nA on
// one side, the rest on the other.
func splitAt(nA int) func(types.ValidatorIndex) int {
	return func(v types.ValidatorIndex) int {
		if int(v) < nA {
			return 0
		}
		return 1
	}
}

// partitionConfig is the simulator a sim/partition cell runs: the first
// round(N·p0) validators in one partition, the rest in the other, under a
// compressed spec, on a network that never heals.
func partitionConfig(p Params) sim.Config {
	return sim.Config{
		Validators:  p.N,
		Spec:        types.CompressedSpec(1 << 16),
		GST:         network.Never,
		Delay:       1,
		Seed:        p.Seed,
		PartitionOf: splitAt(int(math.Round(float64(p.N) * p.P0))),
	}
}

// simGSTConfig is the sim/partition population healing at the p.GST epoch —
// the mechanism-level boundary between the paper's Scenario 5.1 (never
// heals, conflicting finalization) and a harmless outage.
func simGSTConfig(p Params) sim.Config {
	cfg := partitionConfig(p)
	cfg.GST = types.Slot(uint64(p.GST) * cfg.Spec.SlotsPerEpoch)
	return cfg
}

// gstTrace carries the first safety violation observed (0 = none); the run
// concludes at the violation epoch. sim/partition and sim/gst share it.
type gstTrace struct {
	violation float64
}

func (t *gstTrace) observe(s *sim.Simulation, _ Params, epoch int) bool {
	if t.violation == 0 && s.CheckFinalitySafety() != nil {
		t.violation = float64(epoch)
	}
	return t.violation == 0
}

func (t *gstTrace) concluded() int { return int(t.violation) }

func (t *gstTrace) clone() simTrace {
	c := *t
	return &c
}

func (t *gstTrace) walk(c *codec.Coder) { c.F64(&t.violation) }

// finishSimPartition reports the first safety violation, if the horizon
// reached one.
func finishSimPartition(_ context.Context, _ Params, _ *sim.Simulation, tr simTrace) (Result, error) {
	violation := tr.(*gstTrace).violation
	out := Result{
		Metrics: []Metric{
			{Name: "violation_epoch", Value: violation},
			{Name: "violation_detected", Value: boolMetric(violation != 0)},
		},
	}
	if violation != 0 {
		out.Outcome = "2 finalized branches"
	}
	return out, nil
}

// finishSimGST reports whether safety survived and how finality recovered.
func finishSimGST(ctx context.Context, p Params, s *sim.Simulation, tr simTrace) (Result, error) {
	out, _ := finishSimPartition(ctx, p, s, tr)
	minFin := s.MetricsAt(types.Epoch(p.Horizon)).MinFinalized
	recovered := tr.(*gstTrace).violation == 0 && minFin >= types.Epoch(p.GST)
	out.Metrics = append(out.Metrics,
		Metric{Name: "min_finalized_final", Value: float64(minFin)},
		Metric{Name: "recovered", Value: boolMetric(recovered)})
	if recovered {
		out.Outcome = "healed, finality recovered"
	}
	return out, nil
}

// leakPartitionConfig describes the lasting-partition full-protocol simulation
// shared by sim/leak and sim/semiactive: honest validators split p0/(1-p0)
// across a partition that NEVER heals (network.Never, so undeliverable
// cross-partition traffic is discarded instead of accumulating for
// thousands of epochs), under the FULL paper spec — the runs reproduce
// Table 1 / Table 3 headline epochs, so no compressed quotient.
func leakPartitionConfig(p Params, byz []types.ValidatorIndex) sim.Config {
	nHonest := p.N - len(byz)
	return sim.Config{
		Validators:  p.N,
		Spec:        types.DefaultSpec(),
		Byzantine:   byz,
		GST:         network.Never,
		Delay:       1,
		Seed:        p.Seed,
		PartitionOf: splitAt(int(math.Round(float64(nHonest) * p.P0))),
	}
}

// leakTrace accumulates the per-epoch observations of the long-horizon
// conflicting-finalization runs: the sampled stake curve, the stake floor,
// and the conflict epoch (0 = none yet).
type leakTrace struct {
	curve         []CurvePoint
	minStakeRatio float64
	conflict      types.Epoch
}

// observe samples the stake curve and concludes the run at the first
// conflicting finalization.
func (t *leakTrace) observe(s *sim.Simulation, p Params, epoch int) bool {
	initialStake := types.Gwei(uint64(p.N)) * s.Cfg.Spec.MaxEffectiveBalance
	m := s.MetricsAt(types.Epoch(epoch))
	ratio := float64(m.MinTotalStake) / float64(initialStake)
	t.minStakeRatio = min(t.minStakeRatio, ratio)
	if p.Sample > 0 && epoch%p.Sample == 0 {
		t.curve = append(t.curve, CurvePoint{X: float64(epoch), Y: ratio})
	}
	if s.CheckFinalitySafety() != nil {
		t.conflict = types.Epoch(epoch)
		return false
	}
	return true
}

func (t *leakTrace) concluded() int { return int(t.conflict) }

func (t *leakTrace) clone() simTrace {
	c := *t
	c.curve = append([]CurvePoint(nil), t.curve...)
	return &c
}

func (t *leakTrace) walk(c *codec.Coder) {
	codec.Slice(c, &t.curve, 16, func(pt *CurvePoint, c *codec.Coder) {
		c.F64(&pt.X)
		c.F64(&pt.Y)
	})
	c.F64(&t.minStakeRatio)
	c.U64((*uint64)(&t.conflict))
}

// validateSimLeak rejects parameters the leak scenario cannot run.
func validateSimLeak(p Params) error {
	if p.P0 <= 0 || p.P0 >= 1 {
		return fmt.Errorf("engine: sim/leak wants 0 < p0 < 1 (two non-empty branches), got %v", p.P0)
	}
	if p.N < 4 || p.Horizon < 8 {
		return fmt.Errorf("engine: sim/leak wants n >= 4 and horizon >= 8, got n=%d horizon=%d", p.N, p.Horizon)
	}
	// Rounding must leave both branches populated, or the single-view run
	// would burn the whole horizon unable to conflict by construction.
	if nA := int(math.Round(float64(p.N) * p.P0)); nA < 2 || p.N-nA < 2 {
		return fmt.Errorf("engine: sim/leak wants >= 2 validators per branch, got %d/%d (p0=%v n=%d)", nA, p.N-nA, p.P0, p.N)
	}
	return nil
}

// finishSimLeak assembles the paper's headline experiment — Table 1
// Scenario 5.1 at full protocol: the 50/50 (p0) lasting partition leaks for
// thousands of epochs under the real 2^26 penalty quotient until each
// branch's inactive half has drained enough for the branch to regain a
// supermajority, justify two consecutive epochs, and finalize — on both
// sides of the partition at once. The measured conflict epoch is reported
// against the continuous-model analytic anchor (Equation 6; 4662 at
// p0=0.5; Table 1's own 4686 is the paper-parameter variant of the same
// quantity).
func finishSimLeak(_ context.Context, p Params, _ *sim.Simulation, tr simTrace) (Result, error) {
	bc, err := analytic.ContinuousParams().ConflictingFinalization(analytic.HonestOnly, p.P0, 0)
	if err != nil {
		return Result{}, err
	}
	t := tr.(*leakTrace)
	return conflictResult(p, t.conflict, "analytic_epoch", bc.ConflictEpoch, nil, t.minStakeRatio, t.curve), nil
}

// conflictResult assembles the shared result shape of the long-horizon
// conflicting-finalization scenarios: the measured conflict epoch, the
// anchor it is compared against (under anchorName), the relative
// deviation, any scenario-specific extra metrics, the stake floor, and
// the optional sampled curve.
func conflictResult(p Params, conflict types.Epoch, anchorName string, anchor float64, extra []Metric, minStakeRatio float64, curve []CurvePoint) Result {
	deviation := 0.0
	if conflict != 0 && anchor > 0 {
		deviation = (float64(conflict) - anchor) / anchor
	}
	out := Result{
		Metrics: append([]Metric{
			{Name: "conflict_epoch", Value: float64(conflict)},
			{Name: anchorName, Value: anchor},
			{Name: "deviation", Value: deviation},
		}, append(extra, Metric{Name: "min_stake_ratio", Value: minStakeRatio})...),
	}
	if conflict != 0 {
		out.Outcome = "2 finalized branches"
	} else {
		out.Outcome = fmt.Sprintf("no conflicting finalization within %d epochs", p.Horizon)
	}
	if p.Sample > 0 {
		out.CurveName = "min_total_stake_ratio"
		out.Curve = curve
	}
	return out
}

// validateSimSemiActive rejects parameters the semi-active scenario cannot
// run.
func validateSimSemiActive(p Params) error {
	if p.P0 <= 0 || p.P0 >= 1 {
		return fmt.Errorf("engine: sim/semiactive wants 0 < p0 < 1, got %v", p.P0)
	}
	nByz := int(math.Round(float64(p.N) * p.Beta0))
	nHonest := p.N - nByz
	if nHonest < 4 || nByz < 1 {
		return fmt.Errorf("engine: sim/semiactive needs >= 4 honest and >= 1 byzantine validators, got %d/%d", nHonest, nByz)
	}
	nA := int(math.Round(float64(nHonest) * p.P0))
	if nA < 2 || nHonest-nA < 2 {
		return fmt.Errorf("engine: sim/semiactive wants >= 2 honest validators per branch, got %d/%d", nA, nHonest-nA)
	}
	return nil
}

// semiActiveByz derives the Byzantine validators — the top beta0 of the
// index range — from validated params.
func semiActiveByz(p Params) []types.ValidatorIndex {
	byz := make([]types.ValidatorIndex, int(math.Round(float64(p.N)*p.Beta0)))
	for i := range byz {
		byz[i] = types.ValidatorIndex(p.N - len(byz) + i)
	}
	return byz
}

// simSemiActiveConfig is the lasting partition under semi-active Byzantine
// validators watching one honest representative per branch.
func simSemiActiveConfig(p Params) sim.Config {
	cfg := leakPartitionConfig(p, semiActiveByz(p))
	nA := int(math.Round(float64(p.N-len(cfg.Byzantine)) * p.P0))
	cfg.Adversary = &behavior.SemiActive{Reps: [2]types.ValidatorIndex{0, types.ValidatorIndex(nA)}, AutoFinalize: true}
	return cfg
}

// finishSimSemiActive assembles Table 3 at full protocol: beta0 of the
// stake is semi-active Byzantine — active on alternating branches every
// epoch, one vote an epoch, and slashable only by a detector that sees both
// branches, which no honest view is before GST — which
// keeps both branches' active ratios near the quorum from the start and
// makes the leak drain only the honest inactive half. The adversary watches
// both branch views (AutoFinalize) and, the moment alternation justifies
// recent checkpoints on both branches, stays two consecutive epochs per
// branch to finalize each: conflicting finalization at the Table 3 epoch.
// The aggregate two-branch engine's (Tables 2-3) conflict epoch on
// identical parameters is reported as the mechanism-level anchor the full
// protocol should land next to.
func finishSimSemiActive(ctx context.Context, p Params, s *sim.Simulation, tr simTrace) (Result, error) {
	anchorRes, err := core.LeakSim{N: p.N, P0: p.P0, Beta0: p.Beta0, Mode: core.ByzSemiActive}.
		RunContext(ctx, p.Horizon, 0)
	if err != nil {
		return Result{}, err
	}
	t, gait := tr.(*leakTrace), s.Cfg.Adversary.(*behavior.SemiActive).GaitFrom()
	return conflictResult(p, t.conflict, "aggregate_epoch", float64(anchorRes.ConflictEpoch),
		[]Metric{{Name: "gait_epoch", Value: float64(gait)}}, t.minStakeRatio, t.curve), nil
}

// validateSimBounce rejects parameters the bouncing scenario cannot run.
func validateSimBounce(p Params) error {
	if p.GST <= 0 || p.Horizon <= p.GST {
		return fmt.Errorf("engine: sim/bounce wants 0 < gst < horizon, got gst=%d horizon=%d", p.GST, p.Horizon)
	}
	nByz := int(math.Round(float64(p.N) * p.Beta0))
	if nHonest := p.N - nByz; nHonest < 4 || nByz < 1 {
		return fmt.Errorf("engine: sim/bounce needs >= 4 honest and >= 1 byzantine validators, got %d/%d", nHonest, nByz)
	}
	return nil
}

// simBounceConfig stages the probabilistic bouncing attack on the cohort
// kernel: the sim/gst population with the top beta0 of the index range
// Byzantine and the honest rest halved, forked for p.GST epochs; then the
// Bouncer alternates branch justifications and places each honest
// validator's duty view per epoch with stay probability p0. Past a horizon
// of 10 it stops six epochs before the horizon, so the run also shows
// liveness recovering.
func simBounceConfig(p Params) sim.Config {
	cfg := simGSTConfig(p)
	cfg.Byzantine = semiActiveByz(p)
	half := (p.N - len(cfg.Byzantine)) / 2
	cfg.PartitionOf = splitAt(half)
	adv := behavior.NewBouncer(p.P0, p.Seed, [2]types.ValidatorIndex{0, types.ValidatorIndex(half)})
	if p.Horizon > 10 {
		adv.Stop = types.Epoch(p.Horizon - 6)
	}
	cfg.Adversary = adv
	return cfg
}

// bounceTrace carries sim/bounce's observations: the stake floor and the
// highest finalized epoch at the adversary's stop.
type bounceTrace struct {
	minStakeRatio   float64
	finalizedAtStop types.Epoch
}

func (t *bounceTrace) observe(s *sim.Simulation, p Params, epoch int) bool {
	m := s.MetricsAt(types.Epoch(epoch))
	initialStake := types.Gwei(uint64(p.N)) * s.Cfg.Spec.MaxEffectiveBalance
	t.minStakeRatio = min(t.minStakeRatio, float64(m.MinTotalStake)/float64(initialStake))
	if stop := s.Cfg.Adversary.(*behavior.Bouncer).Stop; stop != 0 && types.Epoch(epoch) == stop {
		t.finalizedAtStop = m.MaxFinalized
	}
	return true
}

func (t *bounceTrace) concluded() int { return 0 }

func (t *bounceTrace) clone() simTrace {
	c := *t
	return &c
}

func (t *bounceTrace) walk(c *codec.Coder) {
	c.F64(&t.minStakeRatio)
	c.U64((*uint64)(&t.finalizedAtStop))
}

// finishSimBounce reports the attack's releases and bounces, and whether
// finality stalled while it ran and recovered once it stopped.
func finishSimBounce(_ context.Context, p Params, s *sim.Simulation, tr simTrace) (Result, error) {
	t, adv := tr.(*bounceTrace), s.Cfg.Adversary.(*behavior.Bouncer)
	stop, finalizedFinal := adv.Stop, s.MetricsAt(types.Epoch(p.Horizon)).MaxFinalized
	out := Result{
		Metrics: []Metric{
			{Name: "releases", Value: float64(adv.Releases)},
			{Name: "bounces", Value: float64(adv.Bounces)},
			{Name: "finalized_at_stop", Value: float64(t.finalizedAtStop)},
			{Name: "finalized_final", Value: float64(finalizedFinal)},
			{Name: "recovered", Value: boolMetric(stop != 0 && finalizedFinal >= stop)},
			{Name: "min_stake_ratio", Value: t.minStakeRatio},
		},
	}
	if stop != 0 && t.finalizedAtStop <= types.Epoch(p.GST) {
		out.Outcome = fmt.Sprintf("finality stalled for %d epochs", int64(stop)-int64(p.GST))
	}
	return out, nil
}
