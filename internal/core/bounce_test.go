package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/analytic"
	"repro/internal/types"
)

func TestBounceMCRejectsBadParams(t *testing.T) {
	cases := []BounceMC{
		{NHonest: 0, P0: 0.5},
		{NHonest: 10, P0: -1},
		{NHonest: 10, P0: 0.5, Beta0: 1.0},
	}
	for i, c := range cases {
		if _, _, err := c.Run(10, 0); !errors.Is(err, ErrBadParams) {
			t.Errorf("case %d: want ErrBadParams, got %v", i, err)
		}
	}
	if _, err := (BounceMC{NHonest: 10, P0: 0.5}).ExceedProbability(nil, 5); !errors.Is(err, ErrBadParams) {
		t.Error("empty epoch list must be rejected")
	}
}

// TestBounceMCOneThirdGivesHalf: at beta0 = 1/3 the Monte-Carlo agrees
// with Equation 24 at every epoch. (That Equation 24 reads the paper's
// 0.5 there is a row of report.Claims.)
func TestBounceMCOneThirdGivesHalf(t *testing.T) {
	mc := BounceMC{NHonest: 400, Beta0: 1.0 / 3.0, P0: 0.5, Seed: 11}
	epochs := []types.Epoch{1000, 2500, 4000}
	probs, err := mc.ExceedProbability(epochs, 5)
	if err != nil {
		t.Fatal(err)
	}
	model := analytic.BounceModel{P0: 0.5}
	for i, p := range probs {
		if want := model.ExceedProbability(float64(epochs[i]), 1.0/3.0, analytic.PaperParams()); math.Abs(p-want) > 0.05 {
			t.Errorf("epoch %d: P = %v, Equation 24 %v", epochs[i], p, want)
		}
	}
}

// TestBounceMCSmallBetaStaysZero: beta0 = 0.3 gives a negligible crossing
// probability through mid-leak, matching Figure 10's flat curve.
func TestBounceMCSmallBetaStaysZero(t *testing.T) {
	mc := BounceMC{NHonest: 300, Beta0: 0.3, P0: 0.5, Seed: 23}
	probs, err := mc.ExceedProbability([]types.Epoch{1000, 3000, 5000}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range probs {
		if p > 0.01 {
			t.Errorf("epoch index %d: P = %v, want ~0 for beta0 = 0.3", i, p)
		}
	}
}

// TestBounceMCMatchesEquation24Shape: for beta0 = 0.33 the Monte-Carlo
// probability rises with time and stays within the analytic model's
// neighborhood (the paper's CLT model is an approximation; we require
// qualitative agreement plus the late-epoch ordering).
func TestBounceMCMatchesEquation24Shape(t *testing.T) {
	mc := BounceMC{NHonest: 1000, Beta0: 0.33, P0: 0.5, Seed: 31}
	epochs := []types.Epoch{2000, 4000, 5500, 6500}
	probs, err := mc.ExceedProbability(epochs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(probs); i++ {
		if probs[i] < probs[i-1]-0.02 {
			t.Errorf("probability must rise over the leak: %v", probs)
		}
	}
	model := analytic.BounceModel{P0: 0.5}
	params := analytic.PaperParams()
	for i, e := range epochs {
		want := model.ExceedProbability(float64(e), 0.33, params)
		if math.Abs(probs[i]-want) > 0.15 {
			t.Errorf("epoch %d: MC %v vs Equation 24 %v (|diff| > 0.15)", e, probs[i], want)
		}
	}
	// By epoch 6500 the probability is substantial in both models.
	if probs[len(probs)-1] < 0.1 {
		t.Errorf("late-epoch probability %v, want > 0.1", probs[len(probs)-1])
	}
}

// TestBounceMCByzantineEjection: semi-active Byzantine validators are
// ejected at the law's crossing (~7611 endogenous; the paper quotes 7652
// from its 4685 anchor).
func TestBounceMCByzantineEjection(t *testing.T) {
	mc := BounceMC{NHonest: 100, Beta0: 0.25, P0: 0.5, Seed: 5}
	samples, _, err := mc.Run(7700, 100)
	if err != nil {
		t.Fatal(err)
	}
	var ejectedAt types.Epoch
	for _, s := range samples {
		if s.ByzEjected {
			ejectedAt = s.Epoch
			break
		}
	}
	if ejectedAt == 0 {
		t.Fatal("Byzantine validators never ejected")
	}
	want := analytic.SemiActiveEjectionCrossing()
	if math.Abs(float64(ejectedAt)-want) > 110 { // 100-epoch sampling + discretization
		t.Errorf("Byzantine ejection at %d, want ~%.0f", ejectedAt, want)
	}
}

// TestBounceMCFloorAblation: the real score floor (bounded at zero) makes
// honest validators leak at least as much as the paper's unbounded model,
// so the bounded crossing probability dominates the unbounded one — the
// direction the paper calls "conservatively estimating the loss of stake".
func TestBounceMCFloorAblation(t *testing.T) {
	epochs := []types.Epoch{3000, 5000}
	bounded := BounceMC{NHonest: 500, Beta0: 0.33, P0: 0.5, Seed: 7}
	unbounded := bounded
	unbounded.UnboundedScores = true
	pb, err := bounded.ExceedProbability(epochs, 4)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := unbounded.ExceedProbability(epochs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range epochs {
		if pb[i] < pu[i]-0.02 {
			t.Errorf("epoch %d: bounded %v must not be below unbounded %v", epochs[i], pb[i], pu[i])
		}
	}
}

// TestBounceMCMeanTracksSemiActiveLaw: with p0=0.5 the mean honest stake
// follows the same decay as the Byzantine semi-active stake (both drift at
// +3/2 score per epoch).
func TestBounceMCMeanTracksSemiActiveLaw(t *testing.T) {
	mc := BounceMC{NHonest: 300, Beta0: 0.2, P0: 0.5, Seed: 13}
	samples, _, err := mc.Run(4000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		law := analytic.StakeSemiActive(float64(s.Epoch))
		if rel := math.Abs(s.MeanHonestStakeA-law) / law; rel > 0.01 {
			t.Errorf("epoch %d: mean honest stake %v vs semi-active law %v", s.Epoch, s.MeanHonestStakeA, law)
		}
	}
}

func TestBounceMCDeterministicPerSeed(t *testing.T) {
	a := BounceMC{NHonest: 100, Beta0: 0.3, P0: 0.5, Seed: 42}
	b := BounceMC{NHonest: 100, Beta0: 0.3, P0: 0.5, Seed: 42}
	sa, _, err := a.Run(500, 100)
	if err != nil {
		t.Fatal(err)
	}
	sb, _, err := b.Run(500, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(sa) != len(sb) {
		t.Fatal("sample counts differ")
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

// TestScenarioSummaries: 5.1 conflicts one epoch after each model's
// ejection, and the scenarios order and cross as the paper says.
func TestScenarioSummaries(t *testing.T) {
	ctx := context.Background()
	s1, err := Scenario51(ctx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if want := analytic.PaperParams().EjectionEpoch + 1; s1.AnalyticEpoch != want {
		t.Errorf("scenario 5.1 analytic epoch = %v, want %v", s1.AnalyticEpoch, want)
	}
	if want := types.Epoch(math.Ceil(analytic.ContinuousParams().EjectionEpoch)) + 1; s1.SimEpoch != want {
		t.Errorf("scenario 5.1 sim epoch = %v, want %v (endogenous ejection + 1)", s1.SimEpoch, want)
	}

	s21, err := Scenario521(ctx, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if s21.SimEpoch == 0 || s21.SimEpoch >= s1.SimEpoch {
		t.Errorf("scenario 5.2.1 sim epoch = %d, want a conflict before 5.1's %d", s21.SimEpoch, s1.SimEpoch)
	}

	s22, err := Scenario522(ctx, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if s22.SimEpoch <= s21.SimEpoch {
		t.Error("semi-active conflict must be slower than double-vote conflict")
	}

	s23, err := Scenario523(ctx, 0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !s23.CrossedOneThird || s23.PeakByzProportion <= 1.0/3.0 {
		t.Errorf("scenario 5.2.3 must cross 1/3: %+v", s23)
	}

	s3, err := Scenario53(ctx, 0.5, 1.0/3.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if eq24 := s3.AnalyticEpoch / 100; math.Abs(s3.PeakByzProportion-eq24) > 0.1 {
		t.Errorf("scenario 5.3 MC probability = %v, Equation 24 %v at beta0=1/3", s3.PeakByzProportion, eq24)
	}
}

// TestScenario523Corner pins the footnote 12 corner case: under the
// production-spec residual-penalty rule, Byzantine validators can finalize
// well before the ejection epoch and the honest inactive validators are
// ejected anyway — with the Byzantine peak proportion ABOVE the plain
// 5.2.3 value, because the Byzantine scores recover while the inactive
// scores keep draining. Under the paper's simplified model (penalties only
// during leaks) the same early finalization prevents the ejection
// entirely.
func TestScenario523Corner(t *testing.T) {
	ctx := context.Background()
	plain, err := Scenario523(ctx, 0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, lead := range []types.Epoch{50, 500} {
		s, err := Scenario523Corner(ctx, 0.5, 0.25, lead)
		if err != nil {
			t.Fatal(err)
		}
		if !s.CrossedOneThird {
			t.Errorf("lead %d: corner case must still cross 1/3 (peak %v)", lead, s.PeakByzProportion)
		}
		if s.PeakByzProportion < plain.PeakByzProportion-1e-9 {
			t.Errorf("lead %d: corner peak %v must not fall below plain 5.2.3 peak %v",
				lead, s.PeakByzProportion, plain.PeakByzProportion)
		}
	}

	// Control: with the paper's simplified penalty rule, ending the leak
	// 200 epochs early prevents ejection.
	sim := LeakSim{N: 10000, P0: 0.5, Beta0: 0.25, Mode: ByzSemiActive,
		DelayFinalization: true, EndLeakAtEpoch: 4461}
	res, err := sim.Run(9000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.A.EjectionEpoch != 0 {
		t.Errorf("paper-model early finalization must prevent ejection, got epoch %d", res.A.EjectionEpoch)
	}
	if res.CrossedOneThird {
		t.Error("paper-model early finalization must keep beta below 1/3")
	}

	// Degenerate lead rejected.
	if _, err := Scenario523Corner(ctx, 0.5, 0.25, 99999); err == nil {
		t.Error("lead beyond the ejection epoch must error")
	}
}

// TestResidualPenaltiesSpec: the flag changes nothing while a leak runs and
// keeps draining scored validators after it ends.
func TestResidualPenaltiesSpec(t *testing.T) {
	spec := types.DefaultSpec()
	spec.ResidualPenalties = true
	withRes := LeakSim{Spec: spec, N: 1000, P0: 0.5, Mode: ByzAbsent}
	plain := LeakSim{N: 1000, P0: 0.5, Mode: ByzAbsent}
	a, err := withRes.Run(4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.Run(4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	// During an uninterrupted leak the two rules coincide.
	if a.A.ThresholdEpoch != b.A.ThresholdEpoch {
		t.Errorf("residual penalties changed in-leak behavior: %d vs %d",
			a.A.ThresholdEpoch, b.A.ThresholdEpoch)
	}
}

// TestTable1: the five Table 1 rows, in the paper's order, each run at the
// table's parameters and carrying the table's outcome line.
func TestTable1(t *testing.T) {
	ctx := context.Background()
	rows := []struct {
		id      string
		outcome string
		run     func() (Summary, error)
	}{
		{"5.1", "2 finalized branches", func() (Summary, error) { return Scenario51(ctx, 0.5) }},
		{"5.2.1", "2 finalized branches", func() (Summary, error) { return Scenario521(ctx, 0.5, 0.2) }},
		{"5.2.2", "2 finalized branches", func() (Summary, error) { return Scenario522(ctx, 0.5, 0.2) }},
		{"5.2.3", "beta > 1/3", func() (Summary, error) { return Scenario523(ctx, 0.5, 0.25) }},
		{"5.3", "beta > 1/3 probably", func() (Summary, error) { return Scenario53(ctx, 0.5, 0.33, 1) }},
	}
	for _, r := range rows {
		s, err := r.run()
		if err != nil {
			t.Fatalf("row %s: %v", r.id, err)
		}
		if s.Outcome != r.outcome {
			t.Errorf("row %s: outcome %q, want %q", r.id, s.Outcome, r.outcome)
		}
	}
}
