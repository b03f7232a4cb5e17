package core

import (
	"context"
	"fmt"

	"repro/internal/analytic"
	"repro/internal/types"
)

// Summary pairs a scenario's analytic prediction (the paper's continuous
// model, anchored like the paper anchors it) with the exact integer
// simulation outcome. The engine's scenarios named by the same section
// numbers (5.1 … 5.3, 5.2.3c) report it as a Result.
type Summary struct {
	// Outcome is the paper's Table 1 outcome line.
	Outcome string
	// AnalyticEpoch is the continuous model's conflicting-finalization
	// epoch (or threshold-crossing epoch), paper-anchored.
	AnalyticEpoch float64
	// SimEpoch is the integer simulation's corresponding epoch.
	SimEpoch types.Epoch
	// PeakByzProportion is the simulated maximum Byzantine proportion
	// (Scenario 5.2.3).
	PeakByzProportion float64
	// CrossedOneThird reports whether the simulated Byzantine proportion
	// exceeded 1/3 (Scenarios 5.2.3, 5.3).
	CrossedOneThird bool
	// AnalyticProb and MCProb are Scenario 5.3's outcome, which is a
	// probability and not an epoch: Equation 24's and the Monte-Carlo
	// estimate's probability that the Byzantine proportion exceeds 1/3 at
	// RefEpoch. The epoch fields stay zero there.
	AnalyticProb, MCProb float64
	RefEpoch             types.Epoch
}

// defaultHorizon bounds full-scale scenario runs; the paper's slowest
// outcome lands at 4686, and semi-active ejection at 7653.
const defaultHorizon = 9000

// scenarioN is the validator-set size used by the aggregate runs; results
// are proportion-driven, so any reasonably large N reproduces the paper.
const scenarioN = 10000

// Scenario51 runs the honest-only partition scenario at paper scale.
func Scenario51(ctx context.Context, p0 float64) (Summary, error) {
	params := analytic.PaperParams()
	bc, err := params.ConflictingFinalization(analytic.HonestOnly, p0, 0)
	if err != nil {
		return Summary{}, fmt.Errorf("core: scenario 5.1: %w", err)
	}
	sim := LeakSim{N: scenarioN, P0: p0, Mode: ByzAbsent}
	res, err := sim.RunContext(ctx, defaultHorizon, 0)
	if err != nil {
		return Summary{}, fmt.Errorf("core: scenario 5.1: %w", err)
	}
	return Summary{
		Outcome:       "2 finalized branches",
		AnalyticEpoch: bc.ConflictEpoch,
		SimEpoch:      res.ConflictEpoch,
	}, nil
}

// Scenario521 runs the slashable double-voting scenario at paper scale.
func Scenario521(ctx context.Context, p0, beta0 float64) (Summary, error) {
	params := analytic.PaperParams()
	bc, err := params.ConflictingFinalization(analytic.WithSlashing, p0, beta0)
	if err != nil {
		return Summary{}, fmt.Errorf("core: scenario 5.2.1: %w", err)
	}
	sim := LeakSim{N: scenarioN, P0: p0, Beta0: beta0, Mode: ByzDoubleVote}
	res, err := sim.RunContext(ctx, defaultHorizon, 0)
	if err != nil {
		return Summary{}, fmt.Errorf("core: scenario 5.2.1: %w", err)
	}
	return Summary{
		Outcome:       "2 finalized branches",
		AnalyticEpoch: bc.ConflictEpoch,
		SimEpoch:      res.ConflictEpoch,
	}, nil
}

// Scenario522 runs the non-slashable semi-active scenario at paper scale.
func Scenario522(ctx context.Context, p0, beta0 float64) (Summary, error) {
	params := analytic.PaperParams()
	bc, err := params.ConflictingFinalization(analytic.WithoutSlashing, p0, beta0)
	if err != nil {
		return Summary{}, fmt.Errorf("core: scenario 5.2.2: %w", err)
	}
	sim := LeakSim{N: scenarioN, P0: p0, Beta0: beta0, Mode: ByzSemiActive}
	res, err := sim.RunContext(ctx, defaultHorizon, 0)
	if err != nil {
		return Summary{}, fmt.Errorf("core: scenario 5.2.2: %w", err)
	}
	return Summary{
		Outcome:       "2 finalized branches",
		AnalyticEpoch: bc.ConflictEpoch,
		SimEpoch:      res.ConflictEpoch,
	}, nil
}

// Scenario523 runs the over-one-third scenario at paper scale: semi-active
// Byzantine validators delay finalization until the honest inactive
// validators are ejected.
func Scenario523(ctx context.Context, p0, beta0 float64) (Summary, error) {
	params := analytic.PaperParams()
	sim := LeakSim{N: scenarioN, P0: p0, Beta0: beta0, Mode: ByzSemiActive, DelayFinalization: true}
	res, err := sim.RunContext(ctx, defaultHorizon, 0)
	if err != nil {
		return Summary{}, fmt.Errorf("core: scenario 5.2.3: %w", err)
	}
	peak := res.A.PeakByzProportion
	epoch := res.A.PeakByzEpoch
	if res.B.PeakByzProportion > peak {
		peak, epoch = res.B.PeakByzProportion, res.B.PeakByzEpoch
	}
	return Summary{
		Outcome:           "beta > 1/3",
		AnalyticEpoch:     params.EjectionEpoch,
		SimEpoch:          epoch,
		PeakByzProportion: peak,
		CrossedOneThird:   res.CrossedOneThird,
	}, nil
}

// Scenario523Corner runs the paper's footnote 12 corner case under the
// production-spec residual-penalty rule: the Byzantine validators finalize
// `lead` epochs BEFORE the honest inactive validators would be ejected.
// The leak ends, but the inactive validators' huge accumulated scores keep
// draining them (scores decay only 16 per epoch) until they are ejected
// anyway, while the semi-active Byzantine validators' much smaller scores
// cost them little — "Byzantine validators could potentially eject honest
// inactive participants while incurring fewer penalties themselves".
func Scenario523Corner(ctx context.Context, p0, beta0 float64, lead types.Epoch) (Summary, error) {
	// First find the ejection epoch under the plain 5.2.3 run.
	probe := LeakSim{N: scenarioN, P0: p0, Beta0: beta0, Mode: ByzSemiActive, DelayFinalization: true}
	probeRes, err := probe.RunContext(ctx, defaultHorizon, 0)
	if err != nil {
		return Summary{}, fmt.Errorf("core: scenario 5.2.3 corner probe: %w", err)
	}
	ejection := probeRes.A.EjectionEpoch
	if ejection == 0 || ejection <= lead {
		return Summary{}, fmt.Errorf("%w: no ejection within horizon (lead %d)", ErrBadParams, lead)
	}

	spec := types.DefaultSpec()
	spec.ResidualPenalties = true
	sim := LeakSim{
		Spec: spec, N: scenarioN, P0: p0, Beta0: beta0,
		Mode: ByzSemiActive, DelayFinalization: true,
		EndLeakAtEpoch: ejection - lead,
	}
	res, err := sim.RunContext(ctx, defaultHorizon, 0)
	if err != nil {
		return Summary{}, fmt.Errorf("core: scenario 5.2.3 corner: %w", err)
	}
	peak := res.A.PeakByzProportion
	epoch := res.A.PeakByzEpoch
	if res.B.PeakByzProportion > peak {
		peak, epoch = res.B.PeakByzProportion, res.B.PeakByzEpoch
	}
	return Summary{
		Outcome:           "inactive ejected post-finalization",
		AnalyticEpoch:     float64(ejection),
		SimEpoch:          epoch,
		PeakByzProportion: peak,
		CrossedOneThird:   res.CrossedOneThird,
	}, nil
}

// Scenario53 runs the probabilistic bouncing scenario: the Monte-Carlo
// estimate of the Equation 24 probability at the reference epoch 4000,
// next to the analytic value.
func Scenario53(ctx context.Context, p0, beta0 float64, seed int64) (Summary, error) {
	const refEpoch = 4000
	mc := BounceMC{NHonest: 500, Beta0: beta0, P0: p0, Seed: seed}
	probs, err := mc.ExceedProbabilityContext(ctx, []types.Epoch{refEpoch}, 3)
	if err != nil {
		return Summary{}, fmt.Errorf("core: scenario 5.3: %w", err)
	}
	model := analytic.BounceModel{P0: p0}
	prob := model.ExceedProbability(refEpoch, beta0, analytic.PaperParams())
	return Summary{
		Outcome:         "beta > 1/3 probably",
		CrossedOneThird: probs[0] > 0,
		AnalyticProb:    prob,
		MCProb:          probs[0],
		RefEpoch:        refEpoch,
	}, nil
}
