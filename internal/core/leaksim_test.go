package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/analytic"
	"repro/internal/types"
)

func TestLeakSimRejectsBadParams(t *testing.T) {
	cases := []LeakSim{
		{N: 0, P0: 0.5},
		{N: 100, P0: -0.1},
		{N: 100, P0: 1.5},
		{N: 100, P0: 0.5, Beta0: -0.2, Mode: ByzDoubleVote},
		{N: 100, P0: 0.5, Beta0: 1.0, Mode: ByzDoubleVote},
		{N: 100, P0: 0.5, Beta0: 0.2, Mode: ByzAbsent},
	}
	for i, c := range cases {
		if _, err := c.Run(10, 0); !errors.Is(err, ErrBadParams) {
			t.Errorf("case %d: want ErrBadParams, got %v", i, err)
		}
	}
}

// TestLeakSimTable2 runs Table 2's rows with the exact integer engine:
// the conflict epoch is one after the slower branch regains its quorum.
// (The paper's values, and this engine's distance from them, are rows of
// report.Claims.)
func TestLeakSimTable2(t *testing.T) {
	for _, beta0 := range []float64{0, 0.1, 0.15, 0.2, 0.33} {
		mode := ByzDoubleVote
		if beta0 == 0 {
			mode = ByzAbsent
		}
		res, err := LeakSim{N: 10000, P0: 0.5, Beta0: beta0, Mode: mode}.Run(9000, 0)
		if err != nil {
			t.Fatal(err)
		}
		slower := max(res.A.ThresholdEpoch, res.B.ThresholdEpoch)
		if slower == 0 || res.ConflictEpoch != slower+1 {
			t.Errorf("beta0=%v: conflict epoch %d, slower threshold %d", beta0, res.ConflictEpoch, slower)
		}
	}
}

// TestLeakSimTable3 checks the semi-active rows against the numeric
// solution of Equation 10.
func TestLeakSimTable3(t *testing.T) {
	params := analytic.PaperParams()
	for _, beta0 := range []float64{0.1, 0.15, 0.2, 0.33} {
		want, err := params.ConflictEpochSemiActive(0.5, beta0)
		if err != nil {
			t.Fatal(err)
		}
		sim := LeakSim{N: 10000, P0: 0.5, Beta0: beta0, Mode: ByzSemiActive}
		res, err := sim.Run(9000, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(res.B.ThresholdEpoch)
		if math.Abs(got-want) > 3 {
			t.Errorf("Table 3 beta0=%v: integer sim %v vs Equation 10 root %v", beta0, got, want)
		}
	}
}

// TestLeakSimSymmetricSplitTie: with p0=0.5 both branches regain the quorum
// at the same epoch.
func TestLeakSimSymmetricSplitTie(t *testing.T) {
	sim := LeakSim{N: 10000, P0: 0.5, Mode: ByzAbsent}
	res, err := sim.Run(5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.A.ThresholdEpoch != res.B.ThresholdEpoch {
		t.Errorf("symmetric split thresholds differ: %d vs %d",
			res.A.ThresholdEpoch, res.B.ThresholdEpoch)
	}
}

// TestLeakSimAsymmetricSplit reproduces Figure 3's p0=0.6 curve: the
// majority branch regains its quorum where Equation 6 puts it (before
// ejection), the minority branch only at ejection.
func TestLeakSimAsymmetricSplit(t *testing.T) {
	sim := LeakSim{N: 10000, P0: 0.6, Mode: ByzAbsent}
	res, err := sim.Run(5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := analytic.ContinuousParams().ConflictEpochHonest(0.6)
	if got := float64(res.A.ThresholdEpoch); got < want-1 || got > want+2 {
		t.Errorf("p0=0.6 branch threshold = %v, want within [-1, +2] of Equation 6's %v", got, want)
	}
	if res.B.ThresholdEpoch != res.B.EjectionEpoch {
		t.Errorf("minority branch must regain quorum via ejection: threshold %d, ejection %d",
			res.B.ThresholdEpoch, res.B.EjectionEpoch)
	}
}

// TestLeakSimRatioTraceMatchesEquation5 compares the sampled active-stake
// ratio with the continuous model of Equation 5 (Figure 3).
func TestLeakSimRatioTraceMatchesEquation5(t *testing.T) {
	p0 := 0.3
	sim := LeakSim{N: 10000, P0: p0, Mode: ByzAbsent}
	res, err := sim.Run(4000, 500)
	if err != nil {
		t.Fatal(err)
	}
	params := analytic.ContinuousParams()
	for _, tr := range res.A.Trace {
		want := params.ActiveRatioHonest(float64(tr.Epoch), p0)
		if math.Abs(tr.ActiveRatio-want) > 0.005 {
			t.Errorf("epoch %d: simulated ratio %v vs Equation 5 %v", tr.Epoch, tr.ActiveRatio, want)
		}
	}
	if len(res.A.Trace) != 8 {
		t.Errorf("trace samples = %d, want 8", len(res.A.Trace))
	}
}

// TestLeakSimScenario523Threshold reproduces the Figure 7 threshold with
// the integer engine: beta0 = 0.25 (above 0.2421) crosses 1/3 on both
// branches at the ejection epoch; beta0 = 0.23 does not.
func TestLeakSimScenario523Threshold(t *testing.T) {
	above := LeakSim{N: 10000, P0: 0.5, Beta0: 0.25, Mode: ByzSemiActive, DelayFinalization: true}
	res, err := above.Run(9000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CrossedOneThird {
		t.Errorf("beta0=0.25 must cross 1/3 (peak %v)", res.A.PeakByzProportion)
	}
	if res.A.PeakByzEpoch != res.A.EjectionEpoch {
		t.Errorf("peak at epoch %d, want the ejection epoch %d", res.A.PeakByzEpoch, res.A.EjectionEpoch)
	}
	// The peak value matches Equation 13 evaluated at the endogenous
	// ejection epoch.
	ej := analytic.ContinuousParams().EjectionEpoch
	byz := 0.25 * math.Exp(-3*ej*ej/math.Exp2(28))
	want := byz / (0.5*0.75 + byz)
	if math.Abs(res.A.PeakByzProportion-want) > 0.005 {
		t.Errorf("peak proportion %v vs Equation 13 %v", res.A.PeakByzProportion, want)
	}

	below := LeakSim{N: 10000, P0: 0.5, Beta0: 0.23, Mode: ByzSemiActive, DelayFinalization: true}
	res, err = below.Run(9000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossedOneThird {
		t.Errorf("beta0=0.23 must not cross 1/3 (peak %v)", res.A.PeakByzProportion)
	}
}

// TestLeakSimDoubleVoteFasterThanSemiActive (Figure 6 ordering).
func TestLeakSimDoubleVoteFasterThanSemiActive(t *testing.T) {
	for _, beta0 := range []float64{0.1, 0.2, 0.3} {
		dv := LeakSim{N: 10000, P0: 0.5, Beta0: beta0, Mode: ByzDoubleVote}
		sa := LeakSim{N: 10000, P0: 0.5, Beta0: beta0, Mode: ByzSemiActive}
		rd, err := dv.Run(9000, 0)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := sa.Run(9000, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rd.B.ThresholdEpoch >= rs.B.ThresholdEpoch {
			t.Errorf("beta0=%v: double vote (%d) must beat semi-active (%d)",
				beta0, rd.B.ThresholdEpoch, rs.B.ThresholdEpoch)
		}
	}
}

func TestLeakSimHorizonTooShort(t *testing.T) {
	sim := LeakSim{N: 1000, P0: 0.5, Mode: ByzAbsent}
	res, err := sim.Run(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConflictEpoch != 0 || res.A.ThresholdEpoch != 0 {
		t.Error("100-epoch horizon must not reach any threshold")
	}
}

// TestLeakSimThresholdMonotoneInBeta0Property: more Byzantine stake never
// delays the quorum's return by more than integer rounding can, for either
// behavior (the integer engine's counterpart of the analytic monotonicity
// property). It checks every pair of the 256 β0 values 0.32·raw/255 at
// N = 1000 instead of drawing a few.
//
// The allowance is the engine's rounding: both the Byzantine count
// round(N·β0) and branch A's honest share round(p0·honest) round, so one
// more Byzantine validator can cost branch B one always-active honest
// validator. In semi-active mode a Byzantine validator is active on B only
// every other epoch, so that trade puts B's quorum back up to 2 epochs
// later — first at raw 0x1b → 0x1c (4632 → 4634), again at 0x3b → 0x3c
// (4381 → 4383), 19 pairs in all. Double-vote mode has no inversion.
func TestLeakSimThresholdMonotoneInBeta0Property(t *testing.T) {
	const rounding = 2 // epochs
	for _, mode := range []ByzMode{ByzDoubleVote, ByzSemiActive} {
		var epochs [256]types.Epoch
		for raw := range epochs {
			sim := LeakSim{N: 1000, P0: 0.5, Beta0: 0.32 * float64(raw) / 255, Mode: mode}
			res, err := sim.Run(5000, 0)
			if err != nil {
				t.Fatalf("mode %v raw %#x: %v", mode, raw, err)
			}
			epochs[raw] = res.B.ThresholdEpoch
			if epochs[raw] == 0 {
				epochs[raw] = 5001
			}
		}
		// run(b2) <= run(b1) + rounding for every b1 < b2: compare each
		// raw against the earliest threshold among the smaller ones.
		low := 0
		for raw := 1; raw < len(epochs); raw++ {
			if epochs[raw] > epochs[low]+rounding {
				t.Errorf("mode %v: raw %#x quorum at epoch %d, raw %#x (less Byzantine stake) at %d",
					mode, raw, epochs[raw], low, epochs[low])
			}
			if epochs[raw] < epochs[low] {
				low = raw
			}
		}
	}
}

// TestLeakSimTraceStakesConserveOrdering: at every sampled epoch, active
// stake >= byz stake ordering via the trace is internally consistent:
// ratios and proportions derive from the same aggregates.
func TestLeakSimTraceInternalConsistency(t *testing.T) {
	sim := LeakSim{N: 5000, P0: 0.5, Beta0: 0.25, Mode: ByzSemiActive, DelayFinalization: true}
	res, err := sim.Run(5000, 250)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.A.Trace {
		total := tr.ActiveStake + tr.InactiveStake + tr.ByzStake
		if total == 0 {
			t.Fatalf("epoch %d: zero total", tr.Epoch)
		}
		wantRatio := float64(tr.ActiveStake+tr.ByzStake) / float64(total)
		if diff := tr.ActiveRatio - wantRatio; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("epoch %d: ratio %v vs derived %v", tr.Epoch, tr.ActiveRatio, wantRatio)
		}
		wantByz := float64(tr.ByzStake) / float64(total)
		if diff := tr.ByzProportion - wantByz; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("epoch %d: byz proportion %v vs derived %v", tr.Epoch, tr.ByzProportion, wantByz)
		}
	}
}

func TestByzModeString(t *testing.T) {
	for _, m := range []ByzMode{ByzAbsent, ByzDoubleVote, ByzSemiActive, ByzMode(9)} {
		if m.String() == "" {
			t.Errorf("mode %d renders empty", m)
		}
	}
}
