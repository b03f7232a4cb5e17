package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestActiveRatioHonestInitial(t *testing.T) {
	p := PaperParams()
	for _, p0 := range []float64{0.2, 0.3, 0.4, 0.5, 0.6} {
		if got := p.ActiveRatioHonest(0, p0); math.Abs(got-p0) > 1e-12 {
			t.Errorf("ratio at t=0 = %v, want p0 = %v", got, p0)
		}
	}
}

func TestActiveRatioHonestJumpsToOneAtEjection(t *testing.T) {
	p := PaperParams()
	if got := p.ActiveRatioHonest(PaperEjectionEpoch, 0.3); got != 1 {
		t.Errorf("ratio at ejection = %v, want 1 (Figure 3 jump)", got)
	}
	if got := p.ActiveRatioHonest(PaperEjectionEpoch-1, 0.3); got >= SupermajorityThreshold {
		t.Errorf("p0=0.3 must not reach 2/3 before ejection, got %v", got)
	}
}

// TestFigure3Shape pins the qualitative content of Figure 3: p0=0.6 crosses
// 2/3 around epoch 3107 well before ejection; p0 <= 0.5 only regains the
// quorum via ejection at 4685.
func TestFigure3Shape(t *testing.T) {
	p := PaperParams()
	if got := p.ActiveRatioHonest(3106, 0.6); got >= SupermajorityThreshold {
		t.Errorf("p0=0.6 ratio at 3106 = %v, want < 2/3", got)
	}
	if got := p.ActiveRatioHonest(3108, 0.6); got <= SupermajorityThreshold {
		t.Errorf("p0=0.6 ratio at 3108 = %v, want > 2/3", got)
	}
	for _, p0 := range []float64{0.2, 0.3, 0.4, 0.5} {
		if got := p.ActiveRatioHonest(4684, p0); got >= SupermajorityThreshold {
			t.Errorf("p0=%v must not reach 2/3 before ejection, got %v", p0, got)
		}
	}
}

func TestActiveRatioHonestMonotoneInTime(t *testing.T) {
	p := PaperParams()
	f := func(rawT uint16, rawP uint8) bool {
		t1 := float64(rawT % 4600)
		p0 := 0.1 + 0.5*float64(rawP)/255
		return p.ActiveRatioHonest(t1+1, p0) >= p.ActiveRatioHonest(t1, p0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestActiveRatioSlashingInitial(t *testing.T) {
	p := PaperParams()
	p0, beta0 := 0.5, 0.2
	want := p0*(1-beta0) + beta0 // 0.6
	if got := p.ActiveRatioSlashing(0, p0, beta0); math.Abs(got-want) > 1e-12 {
		t.Errorf("slashing ratio at t=0 = %v, want %v", got, want)
	}
	// Reduces to the honest ratio at beta0 = 0.
	for _, tt := range []float64{0, 100, 2000} {
		a := p.ActiveRatioSlashing(tt, 0.4, 0)
		b := p.ActiveRatioHonest(tt, 0.4)
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("slashing ratio with beta0=0 diverges from honest: %v vs %v", a, b)
		}
	}
	if got := p.ActiveRatioSlashing(PaperEjectionEpoch, 0.2, 0.1); got != 1 {
		t.Errorf("slashing ratio at ejection = %v, want 1", got)
	}
}

func TestActiveRatioSlashingDominatesHonest(t *testing.T) {
	// Byzantine double-voters add active stake: the ratio must always be
	// at least the honest-only ratio.
	p := PaperParams()
	f := func(rawT uint16, rawB uint8) bool {
		tt := float64(rawT % 4600)
		beta0 := 0.33 * float64(rawB) / 255
		return p.ActiveRatioSlashing(tt, 0.5, beta0) >= p.ActiveRatioHonest(tt, 0.5)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestActiveRatioSemiActiveBetweenHonestAndSlashing(t *testing.T) {
	// Semi-active Byzantine stake decays, so the ratio sits between the
	// honest-only curve and the full double-voting curve.
	p := PaperParams()
	for _, tt := range []float64{0, 200, 1000, 3000, 4500} {
		h := p.ActiveRatioHonest(tt, 0.5)
		s := p.ActiveRatioSemiActive(tt, 0.5, 0.25)
		d := p.ActiveRatioSlashing(tt, 0.5, 0.25)
		if !(h-1e-12 <= s && s <= d+1e-12) {
			t.Errorf("t=%v: want honest(%v) <= semi(%v) <= slashing(%v)", tt, h, s, d)
		}
	}
}

func TestBetaProportionInitial(t *testing.T) {
	p := PaperParams()
	for _, beta0 := range []float64{0.1, 0.2421, 0.33} {
		if got := p.BetaProportion(0, 0.5, beta0); math.Abs(got-beta0) > 1e-12 {
			t.Errorf("beta(0) = %v, want beta0 = %v", got, beta0)
		}
	}
}

// TestPaperThresholdBeta0 checks the paper's headline closed form: for
// p0 = 0.5 the minimum initial Byzantine proportion that can cross 1/3 on
// both branches is 1/(1+4 e^{-3*4685^2/2^28}). (Its value, the paper's
// 0.2421, is a row of report.Claims.)
func TestPaperThresholdBeta0(t *testing.T) {
	p := PaperParams()
	got := p.ThresholdBeta0(0.5)
	// The closed form against the direct definition.
	direct := 1 / (1 + 4*math.Exp(-3*PaperEjectionEpoch*PaperEjectionEpoch/math.Exp2(28)))
	if math.Abs(got-direct) > 1e-12 {
		t.Errorf("closed form %v != direct %v", got, direct)
	}
}

func TestThresholdBeta0IsBetaMaxBoundary(t *testing.T) {
	p := PaperParams()
	for _, p0 := range []float64{0.3, 0.5, 0.6} {
		beta := p.ThresholdBeta0(p0)
		if got := p.BetaMax(p0, beta); math.Abs(got-1.0/3.0) > 1e-9 {
			t.Errorf("BetaMax(p0=%v, threshold) = %v, want 1/3", p0, got)
		}
		if p.BetaMax(p0, beta-0.01) >= 1.0/3.0 {
			t.Errorf("below threshold must stay under 1/3 (p0=%v)", p0)
		}
		if p.BetaMax(p0, beta+0.01) <= 1.0/3.0 {
			t.Errorf("above threshold must exceed 1/3 (p0=%v)", p0)
		}
	}
}

// TestFigure7Region pins Figure 7's content: the symmetric corner is at
// (p0, beta0) = (0.5, 0.2421); above it both branches can be pushed past
// 1/3, below not; asymmetric splits raise the requirement.
func TestFigure7Region(t *testing.T) {
	p := PaperParams()
	if !p.ExceedsOnBothBranches(0.5, 0.25) {
		t.Error("(0.5, 0.25) must exceed on both branches")
	}
	if p.ExceedsOnBothBranches(0.5, 0.23) {
		t.Error("(0.5, 0.23) must not exceed on both branches")
	}
	// Asymmetric split: the branch with more honest actives needs a
	// larger beta0; (0.7, 0.25) fails on the p0=0.7 branch.
	if p.ExceedsOnBothBranches(0.7, 0.25) {
		t.Error("(0.7, 0.25) must fail on the honest-heavy branch")
	}
	// beta0 = 0.33 exceeds for a wide p0 range.
	if !p.ExceedsOnBothBranches(0.6, 0.33) {
		t.Error("(0.6, 0.33) must exceed on both branches")
	}
}

func TestBetaMaxMonotoneInBeta0(t *testing.T) {
	p := PaperParams()
	f := func(rawB uint8) bool {
		b := 0.01 + 0.3*float64(rawB)/255
		return p.BetaMax(0.5, b+0.01) > p.BetaMax(0.5, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBetaProportionPeaksAtEjection(t *testing.T) {
	// The Byzantine proportion grows during the leak and JUMPS to the
	// Equation 13 maximum at the moment honest inactive validators are
	// ejected — the paper's Figure 2 intuition: "the biggest gap between
	// semi-active Byzantine stake and honest inactive stake is at the
	// moment of expulsion".
	p := PaperParams()
	beta := func(tt float64) float64 { return p.BetaProportion(tt, 0.5, 0.25) }
	if !(beta(4000) > beta(1000) && beta(1000) > beta(0)) {
		t.Error("beta proportion must grow during the leak")
	}
	// Just before ejection the inactive validators still hold ~16.6 ETH
	// each, so the proportion is well below the post-ejection maximum.
	before := p.BetaProportionWithEjection(PaperEjectionEpoch-1, 0.5, 0.25)
	after := p.BetaProportionWithEjection(PaperEjectionEpoch, 0.5, 0.25)
	bm := p.BetaMax(0.5, 0.25)
	if math.Abs(after-bm) > 1e-9 {
		t.Errorf("post-ejection proportion %v != BetaMax %v", after, bm)
	}
	if after-before < 0.05 {
		t.Errorf("ejection jump = %v -> %v, want a pronounced jump", before, after)
	}
	// With beta0 = 0.25 > 0.2421 the jump crosses the 1/3 threshold.
	if before >= 1.0/3.0 || after <= 1.0/3.0 {
		t.Errorf("threshold crossing at ejection expected: before=%v after=%v", before, after)
	}
}
