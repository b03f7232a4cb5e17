package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestBounceWindowEquation14(t *testing.T) {
	// beta0 = 1/3: window is (0.5, 1).
	lo, hi := BounceWindow(1.0 / 3.0)
	if math.Abs(lo-0.5) > 1e-12 || math.Abs(hi-1.0) > 1e-12 {
		t.Errorf("window(1/3) = (%v, %v), want (0.5, 1)", lo, hi)
	}
	// beta0 -> 0: window collapses toward p0 = 2/3 (paper: "the closer
	// beta0 is to 0, the closer p0 has to be from 2/3").
	lo, hi = BounceWindow(0.01)
	if math.Abs(lo-2.0/3.0) > 0.01 || math.Abs(hi-2.0/3.0) > 0.01 {
		t.Errorf("window(0.01) = (%v, %v), want both near 2/3", lo, hi)
	}
}

func TestBounceWindowConditions(t *testing.T) {
	// Inside the window both defining conditions hold; outside at least
	// one fails.
	f := func(rawP, rawB uint8) bool {
		p0 := float64(rawP) / 255
		beta0 := 0.05 + 0.28*float64(rawB)/255
		inWindow := BounceWindowValid(p0, beta0)
		condA := p0*(1-beta0) < 2.0/3.0
		condB := p0*(1-beta0)+beta0 > 2.0/3.0
		return inWindow == (condA && condB)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPaperContinuationProbability: Section 5.3's estimate is the k-th
// power of the per-epoch probability that one of the first j proposers is
// Byzantine, compared in log space, where the power is a product. (The
// paper's 1.01e-121 is a row of report.Claims.)
func TestPaperContinuationProbability(t *testing.T) {
	got := BounceContinuationProbability(1.0/3.0, 8, 7000)
	want := 7000 * math.Log1p(-math.Pow(2.0/3.0, 8))
	if math.Abs(math.Log(got)-want) > 1e-9 {
		t.Errorf("log continuation probability = %v, want %v", math.Log(got), want)
	}
}

func TestContinuationProbabilityShape(t *testing.T) {
	// More epochs: less likely. More Byzantine: more likely. j larger:
	// more likely.
	if !(BounceContinuationProbability(0.3, 8, 10) > BounceContinuationProbability(0.3, 8, 20)) {
		t.Error("longer attacks must be less likely")
	}
	if !(BounceContinuationProbability(0.33, 8, 10) > BounceContinuationProbability(0.2, 8, 10)) {
		t.Error("more Byzantine stake must make continuation more likely")
	}
	if !(BounceContinuationProbability(0.3, 16, 10) > BounceContinuationProbability(0.3, 8, 10)) {
		t.Error("larger j must make continuation more likely")
	}
}

// TestEquation15 pins the two-epoch score distribution: probabilities sum
// to 1, and the mean is +3 per two epochs regardless of p0 (the origin of
// the drift V = 3/2).
func TestEquation15(t *testing.T) {
	for _, p0 := range []float64{0.1, 0.5, 0.66} {
		d := TwoEpochScoreDistribution(p0)
		var total, mean float64
		for _, o := range d {
			total += o.Probability
			mean += float64(o.Delta) * o.Probability
		}
		if math.Abs(total-1) > 1e-12 {
			t.Errorf("p0=%v: probabilities sum to %v", p0, total)
		}
		if math.Abs(mean-3) > 1e-12 {
			t.Errorf("p0=%v: two-epoch mean = %v, want +3", p0, mean)
		}
	}
	// The specific deltas of Equation 15.
	d := TwoEpochScoreDistribution(0.5)
	if d[0].Delta != 8 || d[1].Delta != 3 || d[2].Delta != -2 {
		t.Errorf("deltas = %v, want +8/+3/-2", d)
	}
	if d[0].Probability != 0.25 || d[1].Probability != 0.5 {
		t.Errorf("p0=0.5 probabilities = %v, want 0.25/0.5/0.25", d)
	}
}

func TestBounceModelMoments(t *testing.T) {
	m := BounceModel{P0: 0.5}
	if m.Drift() != 1.5 {
		t.Errorf("drift = %v, want 3/2", m.Drift())
	}
	if m.Diffusion() != 6.25 {
		t.Errorf("diffusion = %v, want 25*0.25", m.Diffusion())
	}
}

func TestScorePDFNormalization(t *testing.T) {
	m := BounceModel{P0: 0.5}
	tt := 500.0
	total := mathx.Simpson(func(s float64) float64 { return m.ScorePDF(s, tt) }, -2000, 4000, 8000)
	if math.Abs(total-1) > 1e-6 {
		t.Errorf("score pdf integrates to %v, want 1", total)
	}
	// Mean at V*t.
	mean := mathx.Simpson(func(s float64) float64 { return s * m.ScorePDF(s, tt) }, -2000, 4000, 8000)
	if math.Abs(mean-1.5*tt) > 1e-3 {
		t.Errorf("score mean = %v, want %v", mean, 1.5*tt)
	}
}

func TestStakeCDFIsLogNormalForm(t *testing.T) {
	// Equation 19 written via mathx.LogNormalCDF: ln s ~ N(ln 32 - Vt^2/2^27,
	// (4/3 D t^3)/2 / 2^52). Cross-check the two forms.
	m := BounceModel{P0: 0.5}
	tt := 2000.0
	mu := math.Log(InitialStakeETH) - m.Drift()*tt*tt/2/Quotient
	sigma := math.Sqrt(2.0/3.0*m.Diffusion()*tt*tt*tt) / Quotient
	for _, s := range []float64{10, 20, 28, 31} {
		a := m.StakeCDF(s, tt)
		b := mathx.LogNormalCDF(s/1, mu, sigma)
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("s=%v: Equation 19 form %v != lognormal form %v", s, a, b)
		}
	}
}

func TestStakePDFMatchesCDFDerivative(t *testing.T) {
	// The distribution at t=3000 is a narrow log-normal spike around the
	// mean stake 32 e^{-V t^2 / 2^27} ~ 28.9 ETH (sigma ~ 0.14 ETH);
	// sample the derivative within the spike where both quantities are
	// well conditioned.
	m := BounceModel{P0: 0.5}
	tt := 3000.0
	mean := InitialStakeETH * math.Exp(-m.Drift()*tt*tt/2/Quotient)
	const h = 1e-6
	for _, s := range []float64{mean - 0.2, mean, mean + 0.2} {
		numeric := (m.StakeCDF(s+h, tt) - m.StakeCDF(s-h, tt)) / (2 * h)
		pdf := m.StakePDF(s, tt)
		if rel := math.Abs(numeric-pdf) / pdf; rel > 1e-3 {
			t.Errorf("s=%v: pdf %v vs cdf derivative %v (rel %v)", s, pdf, numeric, rel)
		}
	}
}

func TestStakeCDFBoundaries(t *testing.T) {
	m := BounceModel{P0: 0.5}
	if m.StakeCDF(-1, 100) != 0 || m.StakeCDF(0, 100) != 0 {
		t.Error("no mass at non-positive stake")
	}
	if m.StakeCDF(31.999, 0) != 0 || m.StakeCDF(32.001, 0) != 1 {
		t.Error("t=0 distribution must be a point mass at 32")
	}
	if got := m.StakeCDF(1e9, 4000); math.Abs(got-1) > 1e-9 {
		t.Errorf("CDF at +inf = %v, want 1", got)
	}
}

func TestCensoredStakeCDFStructure(t *testing.T) {
	m := BounceModel{P0: 0.5}
	tt := 4024.0 // the epoch of Figure 9
	// Below the ejection point the CDF equals the atom mass.
	atom := m.StakeCDF(EjectionStakeETH, tt)
	if got := m.CensoredStakeCDF(10, tt); math.Abs(got-atom) > 1e-12 {
		t.Errorf("below-ejection CDF = %v, want atom mass %v", got, atom)
	}
	// At the cap the CDF is exactly 1.
	if got := m.CensoredStakeCDF(32, tt); got != 1 {
		t.Errorf("CDF at cap = %v, want 1", got)
	}
	// Strictly monotone between.
	if !(m.CensoredStakeCDF(25, tt) < m.CensoredStakeCDF(30, tt)) {
		t.Error("CDF must increase in the interior")
	}
}

func TestCensoredStakeCDFMonotoneProperty(t *testing.T) {
	m := BounceModel{P0: 0.4}
	f := func(rawX, rawY uint16, rawT uint8) bool {
		x := float64(rawX) / 65535 * 40
		y := float64(rawY) / 65535 * 40
		tt := 100 + float64(rawT)*20
		if x > y {
			x, y = y, x
		}
		gx := m.CensoredStakeCDF(x, tt)
		gy := m.CensoredStakeCDF(y, tt)
		return gx <= gy+1e-12 && gx >= 0 && gy <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFigure9Distribution pins the structure of Figure 9. At the figure's
// epoch t = 4024 the true distribution is a narrow spike well inside
// (16.75, 32) — the paper drew the figure "with exaggerated standard
// deviation", so the atoms are visually prominent there but analytically
// negligible. Late in the attack (t = 7400) the ejection atom carries real
// mass. In both regimes total mass must be 1 and the interior density must
// vanish outside the censor interval.
func TestFigure9Distribution(t *testing.T) {
	m := BounceModel{P0: 0.5}

	d := m.Distribution(4024)
	interior := mathx.AdaptiveSimpson(d.Interior, EjectionStakeETH, InitialStakeETH, 1e-10)
	total := d.AtomEjected + d.AtomCapped + interior
	if math.Abs(total-1) > 1e-6 {
		t.Errorf("t=4024: total mass = %v, want 1", total)
	}
	if d.AtomEjected > 1e-6 {
		t.Errorf("t=4024: ejection atom = %v, want ~0 (spike far from censors)", d.AtomEjected)
	}
	if d.Interior(10) != 0 || d.Interior(33) != 0 {
		t.Error("interior density must vanish outside (16.75, 32)")
	}

	late := m.Distribution(7400)
	lateInterior := mathx.AdaptiveSimpson(late.Interior, EjectionStakeETH, InitialStakeETH, 1e-10)
	lateTotal := late.AtomEjected + late.AtomCapped + lateInterior
	if math.Abs(lateTotal-1) > 1e-6 {
		t.Errorf("t=7400: total mass = %v, want 1", lateTotal)
	}
	if late.AtomEjected < 0.01 {
		t.Errorf("t=7400: ejection atom = %v, want > 1%% (mass reaching the censor)", late.AtomEjected)
	}
}

// TestEquation24AtOneThird pins the paper's observation that beta0 = 1/3
// makes Equation 24 evaluate to exactly F(sB(t), t) = 0.5 for all t.
func TestEquation24AtOneThird(t *testing.T) {
	m := BounceModel{P0: 0.5}
	params := PaperParams()
	for _, tt := range []float64{500, 2000, 5000} {
		got := m.ExceedProbability(tt, 1.0/3.0, params)
		if math.Abs(got-0.5) > 1e-9 {
			t.Errorf("t=%v: P(beta > 1/3) = %v, want 0.5", tt, got)
		}
	}
}

// TestFigure10Shape pins Figure 10: curves are ordered by beta0, small
// beta0 stays near zero until late in the leak, probabilities jump near the
// Byzantine ejection epoch and drop to zero after it.
func TestFigure10Shape(t *testing.T) {
	m := BounceModel{P0: 0.5}
	params := PaperParams()
	// Ordering in beta0 at a fixed epoch.
	betas := []float64{0.3, 0.329, 0.33, 0.333, 0.3333, 1.0 / 3.0}
	tt := 4000.0
	prev := -1.0
	for _, b := range betas {
		got := m.ExceedProbability(tt, b, params)
		if got < prev-1e-12 {
			t.Errorf("probability must increase with beta0: beta0=%v gives %v after %v", b, got, prev)
		}
		prev = got
	}
	// beta0 = 0.3 is negligible mid-leak.
	if got := m.ExceedProbability(3000, 0.3, params); got > 1e-6 {
		t.Errorf("beta0=0.3 at t=3000 = %v, want ~0", got)
	}
	// Probability rises sharply right before Byzantine ejection...
	nearEject := m.ExceedProbability(7600, 0.3, params)
	if nearEject < 0.2 {
		t.Errorf("beta0=0.3 near ejection = %v, want sharp rise (paper: 'rises abruptly')", nearEject)
	}
	// ...and is zero after the Byzantine validators are ejected.
	if got := m.ExceedProbability(7652, 0.3, params); got != 0 {
		t.Errorf("after Byzantine ejection = %v, want 0", got)
	}
}

// TestFigure10DoublingRemark checks the paper's remark that the probability
// can effectively be doubled because the attack runs on two branches: we
// expose that as simply 2*ExceedProbability capped at 1 downstream; here we
// verify the one-branch probability stays <= 0.5 for beta0 <= 1/3 so the
// doubling never exceeds 1 before ejection.
func TestFigure10DoublingRemark(t *testing.T) {
	m := BounceModel{P0: 0.5}
	params := PaperParams()
	for _, b := range []float64{0.3, 0.32, 1.0 / 3.0} {
		for _, tt := range []float64{100, 1000, 4000, 7000} {
			if got := m.ExceedProbability(tt, b, params); got > 0.5+1e-9 {
				t.Errorf("one-branch probability %v at (t=%v, b=%v) exceeds 0.5", got, tt, b)
			}
		}
	}
}
