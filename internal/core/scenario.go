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

// Scenario523Corner runs the paper's footnote 12 corner case under the
// production-spec residual-penalty rule: the Byzantine validators finalize
// `lead` epochs BEFORE the honest inactive validators would be ejected.
// The leak ends, but the inactive validators' huge accumulated scores keep
// draining them (scores decay only 16 per epoch) until they are ejected
// anyway, while the semi-active Byzantine validators' much smaller scores
// cost them little — "Byzantine validators could potentially eject honest
// inactive participants while incurring fewer penalties themselves".
//
// probe is the plain Scenario 5.2.3 run (semi-active, delaying
// finalization), which finds the ejection epoch.
func Scenario523Corner(ctx context.Context, probe LeakSim, lead types.Epoch) (Summary, error) {
	// Both runs last long enough for the semi-active ejection at 7653.
	const horizon = 9000
	probeRes, err := probe.RunContext(ctx, horizon, 0)
	if err != nil {
		return Summary{}, fmt.Errorf("core: scenario 5.2.3 corner probe: %w", err)
	}
	ejection := probeRes.A.EjectionEpoch
	if ejection == 0 || ejection <= lead {
		return Summary{}, fmt.Errorf("%w: no ejection within horizon (lead %d)", ErrBadParams, lead)
	}

	sim := probe
	sim.Spec = types.DefaultSpec()
	sim.Spec.ResidualPenalties = true
	sim.EndLeakAtEpoch = ejection - lead
	res, err := sim.RunContext(ctx, horizon, 0)
	if err != nil {
		return Summary{}, fmt.Errorf("core: scenario 5.2.3 corner: %w", err)
	}
	peak, epoch := res.Peak()
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
