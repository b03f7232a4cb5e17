package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

// TestConflictEpochMonotoneInBeta0: more Byzantine stake never slows the
// loss of Safety, for either behavior.
func TestConflictEpochMonotoneInBeta0(t *testing.T) {
	p := PaperParams()
	f := func(rawA, rawB uint8) bool {
		b1 := 0.33 * float64(rawA) / 255
		b2 := 0.33 * float64(rawB) / 255
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		slash1 := p.ConflictEpochSlashing(0.5, b1)
		slash2 := p.ConflictEpochSlashing(0.5, b2)
		if slash2 > slash1+1e-9 {
			return false
		}
		s1, err1 := p.ConflictEpochSemiActive(0.5, b1)
		s2, err2 := p.ConflictEpochSemiActive(0.5, b2)
		if err1 != nil || err2 != nil {
			return false
		}
		return s2 <= s1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestConflictEpochMonotoneInP0: a branch with more honest active
// validators regains its quorum no later.
func TestConflictEpochMonotoneInP0(t *testing.T) {
	p := PaperParams()
	f := func(rawA, rawB uint8) bool {
		p1 := 0.05 + 0.55*float64(rawA)/255
		p2 := 0.05 + 0.55*float64(rawB)/255
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return p.ConflictEpochHonest(p2) <= p.ConflictEpochHonest(p1)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRatiosAlwaysInUnitInterval for the honest and semi-active ratio
// models.
func TestRatiosAlwaysInUnitInterval(t *testing.T) {
	p := PaperParams()
	f := func(rawT uint16, rawP, rawB uint8) bool {
		tt := float64(rawT % 8000)
		p0 := float64(rawP) / 255
		b0 := 0.33 * float64(rawB) / 255
		for _, r := range []float64{
			p.ActiveRatioHonest(tt, p0),
			p.ActiveRatioSemiActive(tt, p0, b0),
		} {
			if r < -1e-12 || r > 1+1e-12 || math.IsNaN(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestThresholdBeta0MonotoneInP0: a more honest-active branch needs more
// Byzantine stake to cross 1/3.
func TestThresholdBeta0MonotoneInP0(t *testing.T) {
	p := PaperParams()
	f := func(rawA, rawB uint8) bool {
		p1 := 0.05 + 0.9*float64(rawA)/255
		p2 := 0.05 + 0.9*float64(rawB)/255
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return p.ThresholdBeta0(p1) <= p.ThresholdBeta0(p2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExceedProbabilityMonotoneInBeta0 at fixed epochs.
func TestExceedProbabilityMonotoneInBeta0(t *testing.T) {
	m := BounceModel{P0: 0.5}
	params := PaperParams()
	f := func(rawA, rawB uint8, rawT uint8) bool {
		b1 := 0.30 + (1.0/3.0-0.30)*float64(rawA)/255
		b2 := 0.30 + (1.0/3.0-0.30)*float64(rawB)/255
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		tt := 500 + float64(rawT)*25
		return m.ExceedProbability(tt, b1, params) <= m.ExceedProbability(tt, b2, params)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestBounceWindowNonEmptyForPositiveBeta: the Equation 14 window is a
// proper interval for every beta0 in (0, 1/3].
func TestBounceWindowNonEmptyForPositiveBeta(t *testing.T) {
	f := func(raw uint8) bool {
		b := 0.001 + (1.0/3.0-0.001)*float64(raw)/255
		lo, hi := BounceWindow(b)
		return lo < hi && lo > 0 && hi <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
