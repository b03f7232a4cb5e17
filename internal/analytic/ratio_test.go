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

func TestActiveRatioSemiActiveBetweenHonestAndSlashing(t *testing.T) {
	// Semi-active Byzantine stake decays, so the ratio sits between the
	// honest-only curve and the full double-voting curve.
	p := PaperParams()
	const p0, beta0 = 0.5, 0.25
	for _, tt := range []float64{0, 200, 1000, 3000, 4500} {
		h := p.ActiveRatioHonest(tt, p0)
		s := p.ActiveRatioSemiActive(tt, p0, beta0)
		d := activeRatioSlashing(p, tt, p0, beta0)
		if !(h-1e-12 <= s && s <= d+1e-12) {
			t.Errorf("t=%v: want honest(%v) <= semi(%v) <= slashing(%v)", tt, h, s, d)
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

// betaMax is Equation 13, ThresholdBeta0's reference: the Byzantine stake
// proportion at the moment the honest inactive validators are ejected, the
// maximum the semi-active proportion reaches for a given (p0, beta0).
func betaMax(p Params, p0, beta0 float64) float64 {
	byz := beta0 * math.Exp(-3*p.EjectionEpoch*p.EjectionEpoch/math.Exp2(28))
	return byz / (p0*(1-beta0) + byz)
}

func TestThresholdBeta0IsBetaMaxBoundary(t *testing.T) {
	p := PaperParams()
	for _, p0 := range []float64{0.3, 0.5, 0.6} {
		beta := p.ThresholdBeta0(p0)
		if got := betaMax(p, p0, beta); math.Abs(got-1.0/3.0) > 1e-9 {
			t.Errorf("BetaMax(p0=%v, threshold) = %v, want 1/3", p0, got)
		}
		if betaMax(p, p0, beta-0.01) >= 1.0/3.0 {
			t.Errorf("below threshold must stay under 1/3 (p0=%v)", p0)
		}
		if betaMax(p, p0, beta+0.01) <= 1.0/3.0 {
			t.Errorf("above threshold must exceed 1/3 (p0=%v)", p0)
		}
	}
}
