package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStakeLawsAtZero(t *testing.T) {
	if StakeActive(0) != 32 || StakeInactive(0) != 32 || StakeSemiActive(0) != 32 {
		t.Error("all stake laws must start at 32 ETH")
	}
	if StakeActive(5000) != 32 {
		t.Error("active validators never lose stake during a leak")
	}
}

func TestStakeLawsOrdering(t *testing.T) {
	// At any positive epoch: active > semi-active > inactive.
	for _, tt := range []float64{1, 100, 1000, 4000, 7000} {
		a, s, i := StakeActive(tt), StakeSemiActive(tt), StakeInactive(tt)
		if !(a > s && s > i) {
			t.Errorf("t=%v: ordering violated: active=%v semi=%v inactive=%v", tt, a, s, i)
		}
	}
}

func TestStakeLawsMonotoneDecreasing(t *testing.T) {
	f := func(raw uint16) bool {
		t1 := float64(raw) / 8
		t2 := t1 + 1
		return StakeInactive(t2) < StakeInactive(t1) &&
			StakeSemiActive(t2) < StakeSemiActive(t1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPaperFigure2KeyPoints pins the Figure 2 trajectories at the ejection
// crossings derived from the stake laws themselves.
func TestPaperFigure2KeyPoints(t *testing.T) {
	inactiveCross := InactiveEjectionCrossing()
	if math.Abs(inactiveCross-4660.58) > 0.5 {
		t.Errorf("inactive ejection crossing = %v, want ~4660.6", inactiveCross)
	}
	semiCross := SemiActiveEjectionCrossing()
	if math.Abs(semiCross-7610.70) > 0.5 {
		t.Errorf("semi-active ejection crossing = %v, want ~7610.7", semiCross)
	}
	// The crossings satisfy the defining equations.
	if math.Abs(StakeInactive(inactiveCross)-EjectionStakeETH) > 1e-9 {
		t.Error("inactive crossing does not satisfy its stake law")
	}
	if math.Abs(StakeSemiActive(semiCross)-EjectionStakeETH) > 1e-9 {
		t.Error("semi-active crossing does not satisfy its stake law")
	}
}

// TestPaperEjectionRatioSqrt83 checks the internal consistency of the
// paper's reported ejection epochs: 7652 / 4685 = sqrt(8/3), the exact
// ratio implied by the two stake laws.
func TestPaperEjectionRatioSqrt83(t *testing.T) {
	ratioPaper := PaperSemiActiveEjectionEpoch / PaperEjectionEpoch
	ratioLaws := SemiActiveEjectionCrossing() / InactiveEjectionCrossing()
	want := math.Sqrt(8.0 / 3.0)
	if math.Abs(ratioPaper-want) > 1e-3 {
		t.Errorf("paper ejection ratio = %v, want sqrt(8/3) = %v", ratioPaper, want)
	}
	if math.Abs(ratioLaws-want) > 1e-9 {
		t.Errorf("law ejection ratio = %v, want sqrt(8/3) = %v", ratioLaws, want)
	}
}

func TestParamsConstructors(t *testing.T) {
	p := PaperParams()
	if p.EjectionEpoch != 4685 || p.SemiActiveEjectionEpoch != 7652 {
		t.Errorf("PaperParams = %+v", p)
	}
	c := ContinuousParams()
	if math.Abs(c.EjectionEpoch-4660.58) > 0.5 {
		t.Errorf("ContinuousParams ejection = %v", c.EjectionEpoch)
	}
	// Documented discrepancy: the paper's anchor exceeds the endogenous
	// crossing by ~24 epochs.
	if d := p.EjectionEpoch - c.EjectionEpoch; d < 20 || d > 30 {
		t.Errorf("paper-vs-continuous ejection gap = %v, want ~24", d)
	}
}

// TestStakeDecayExponentsMatchScores verifies that each stake law is the
// solution of s' = -I(t) s / 2^26 (Equation 3) for its score model, by
// comparing the log-derivative against -I(t)/2^26 numerically.
func TestStakeDecayExponentsMatchScores(t *testing.T) {
	const h = 1e-3
	for _, tt := range []float64{10, 500, 3000} {
		// Inactive: d/dt ln s = -4t/2^26.
		got := (math.Log(StakeInactive(tt+h)) - math.Log(StakeInactive(tt-h))) / (2 * h)
		want := -4 * tt / Quotient
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("inactive log-derivative at %v = %v, want %v", tt, got, want)
		}
		// Semi-active: d/dt ln s = -(3t/2)/2^26.
		got = (math.Log(StakeSemiActive(tt+h)) - math.Log(StakeSemiActive(tt-h))) / (2 * h)
		want = -1.5 * tt / Quotient
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("semi-active log-derivative at %v = %v, want %v", tt, got, want)
		}
	}
}
