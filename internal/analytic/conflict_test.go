package analytic

import (
	"math"
	"testing"
)

// TestPaperTable2: Table 2 prints, per beta0 row, the first whole epoch at
// which Equation 8's active ratio holds the 2/3 quorum, which is Equation
// 9's root rounded up by PaperTableEpoch. The paper's values are rows of
// report.Claims, which holds this column to them.
func TestPaperTable2(t *testing.T) {
	p := PaperParams()
	for _, beta0 := range []float64{0.1, 0.15, 0.2, 0.33} {
		e := float64(PaperTableEpoch(p.ConflictEpochSlashing(0.5, beta0)))
		if activeRatioSlashing(p, e, 0.5, beta0) < SupermajorityThreshold ||
			activeRatioSlashing(p, e-1, 0.5, beta0) >= SupermajorityThreshold {
			t.Errorf("beta0=%v: epoch %v is not the first whole epoch with the quorum", beta0, e)
		}
	}
}

// activeRatioSlashing is Equation 8, the reference Equation 9 solves: the
// active-stake ratio on a branch when Byzantine validators (initial
// proportion beta0) double-vote on both branches, staying fully active on
// each, and p0 of the honest validators are active on this branch.
func activeRatioSlashing(p Params, t, p0, beta0 float64) float64 {
	if t >= p.EjectionEpoch {
		return 1
	}
	active := p0*(1-beta0) + beta0
	inactive := (1 - p0) * (1 - beta0) * math.Exp(-t*t/math.Exp2(25))
	return active / (active + inactive)
}

// TestPaperTable3 is TestPaperTable2 for Table 3: Equation 10's numeric
// root, rounded up, is the first whole epoch with the quorum.
func TestPaperTable3(t *testing.T) {
	p := PaperParams()
	for _, beta0 := range []float64{0.1, 0.15, 0.2, 0.33} {
		root, err := p.ConflictEpochSemiActive(0.5, beta0)
		if err != nil {
			t.Fatal(err)
		}
		e := float64(PaperTableEpoch(root))
		if p.ActiveRatioSemiActive(e, 0.5, beta0) < SupermajorityThreshold ||
			p.ActiveRatioSemiActive(e-1, 0.5, beta0) >= SupermajorityThreshold {
			t.Errorf("beta0=%v: epoch %v is not the first whole epoch with the quorum", beta0, e)
		}
	}
}

// TestPaperScenario51Headline pins Section 5.1's structure: with only
// honest validators, whatever the split, the slower branch reaches its
// quorum at the ejection anchor and conflicting finalization lands one
// epoch later.
func TestPaperScenario51Headline(t *testing.T) {
	p := PaperParams()
	for _, p0 := range []float64{0.2, 0.35, 0.5} {
		bc, err := p.ConflictingFinalization(HonestOnly, p0, 0)
		if err != nil {
			t.Fatal(err)
		}
		slow := math.Max(bc.ThresholdA, bc.ThresholdB)
		if slow != p.EjectionEpoch {
			t.Errorf("p0=%v: slower branch threshold = %v, want the ejection epoch %v", p0, slow, p.EjectionEpoch)
		}
		if bc.ConflictEpoch != slow+1 {
			t.Errorf("p0=%v: conflicting finalization = %v, want %v", p0, bc.ConflictEpoch, slow+1)
		}
	}
	// p0=0.6: the fast branch finalizes well before ejection, ending its
	// leak; the minority branch still needs ejection.
	bc, err := p.ConflictingFinalization(HonestOnly, 0.6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bc.ThresholdA >= p.EjectionEpoch || math.Abs(p.ActiveRatioHonest(bc.ThresholdA, 0.6)-SupermajorityThreshold) > 1e-9 {
		t.Errorf("p0=0.6 fast branch = %v, want Equation 6's quorum before ejection", bc.ThresholdA)
	}
	if bc.ThresholdB != p.EjectionEpoch {
		t.Errorf("p0=0.6 slow branch = %v, want the ejection epoch %v", bc.ThresholdB, p.EjectionEpoch)
	}
}

// TestByzantineSpeedupFactors: slashable behavior is strictly faster than
// non-slashable, and both beat honest-only. (The paper's "ten times" and
// "eight times faster" are rows of report.Claims.)
func TestByzantineSpeedupFactors(t *testing.T) {
	p := PaperParams()
	slashing := p.ConflictEpochSlashing(0.5, 0.33)
	semi, err := p.ConflictEpochSemiActive(0.5, 0.33)
	if err != nil {
		t.Fatal(err)
	}
	if !(slashing < semi && semi < p.ConflictEpochHonest(0.5)) {
		t.Errorf("slashing (%v) must beat semi-active (%v), which must beat honest-only (%v)",
			slashing, semi, p.ConflictEpochHonest(0.5))
	}
}

// TestFigure6Curves pins Figure 6's shape: both curves decrease in beta0,
// the slashing curve lies below the non-slashing curve, and both approach
// zero as beta0 -> 1/3.
func TestFigure6Curves(t *testing.T) {
	p := PaperParams()
	prevSlash, prevSemi := math.Inf(1), math.Inf(1)
	for _, beta0 := range []float64{0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.33} {
		slash := p.ConflictEpochSlashing(0.5, beta0)
		semi, err := p.ConflictEpochSemiActive(0.5, beta0)
		if err != nil {
			t.Fatal(err)
		}
		if slash > prevSlash || semi > prevSemi {
			t.Errorf("beta0=%v: curves must decrease (slash %v->%v, semi %v->%v)",
				beta0, prevSlash, slash, prevSemi, semi)
		}
		if slash > semi {
			t.Errorf("beta0=%v: slashing curve (%v) must lie below semi-active (%v)", beta0, slash, semi)
		}
		prevSlash, prevSemi = slash, semi
	}
	// As beta0 -> 1/3 with p0 = 0.5, both times collapse toward zero.
	nearLimit := p.ConflictEpochSlashing(0.5, 0.3333)
	if nearLimit > 100 {
		t.Errorf("near-1/3 slashing epoch = %v, want < 100", nearLimit)
	}
}

func TestConflictEpochHonestDomain(t *testing.T) {
	p := PaperParams()
	if !math.IsNaN(p.ConflictEpochHonest(0)) {
		t.Error("p0=0 is out of domain")
	}
	if got := p.ConflictEpochHonest(0.7); got != 0 {
		t.Errorf("p0 >= 2/3 holds the quorum immediately, got %v", got)
	}
}

func TestConflictEpochSlashingAlreadyQuorate(t *testing.T) {
	p := PaperParams()
	// p0(1-b)+b >= 2/3 at t=0: threshold time must be 0.
	if got := p.ConflictEpochSlashing(0.6, 0.2); got != 0 {
		t.Errorf("already-quorate branch time = %v, want 0", got)
	}
}

func TestConflictEpochSemiActiveAlreadyQuorate(t *testing.T) {
	p := PaperParams()
	got, err := p.ConflictEpochSemiActive(0.8, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("already-quorate branch time = %v, want 0", got)
	}
}

func TestConflictEpochSemiActiveEjectionFallback(t *testing.T) {
	p := PaperParams()
	// Tiny honest-active proportion and tiny Byzantine stake: the quorum
	// only returns via ejection.
	got, err := p.ConflictEpochSemiActive(0.05, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if got != p.EjectionEpoch {
		t.Errorf("quorum-via-ejection time = %v, want %v", got, p.EjectionEpoch)
	}
}

func TestConflictingFinalizationSymmetry(t *testing.T) {
	p := PaperParams()
	a, err := p.ConflictingFinalization(WithSlashing, 0.3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.ConflictingFinalization(WithSlashing, 0.7, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if a.ThresholdA != b.ThresholdB || a.ThresholdB != b.ThresholdA {
		t.Errorf("branch swap must mirror thresholds: %+v vs %+v", a, b)
	}
	if a.ConflictEpoch != b.ConflictEpoch {
		t.Error("conflict epoch must be split-symmetric")
	}
}

func TestConflictingFinalizationUnknownBehavior(t *testing.T) {
	p := PaperParams()
	if _, err := p.ConflictingFinalization(Behavior(99), 0.5, 0.2); err == nil {
		t.Error("unknown behavior must error")
	}
}

func TestBehaviorString(t *testing.T) {
	if HonestOnly.String() == "" || WithSlashing.String() == "" || WithoutSlashing.String() == "" {
		t.Error("behavior names must be non-empty")
	}
	if Behavior(42).String() == "" {
		t.Error("unknown behavior must still render")
	}
}
