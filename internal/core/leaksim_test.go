package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/analytic"
	"repro/internal/ffg"
	"repro/internal/incentives"
	"repro/internal/types"
	"repro/internal/validator"
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

// TestAggregationIsExact checks the aggregate model's founding assumption:
// a cohort's registry row stands for each of its members. Beside LeakSim
// at a small N it runs perValidatorLeak, whose branches hold a row per
// validator, and requires the same Result: the same thresholds, ejections,
// peaks and conflict epoch, and at every sampled epoch the same trace,
// whose stakes the reference sums over members where LeakSim weighs a row
// by its count. The cases cover every mode with and without
// DelayFinalization, an empty cohort (p0 = 1) and the Scenario 5.2.3
// corner: ResidualPenalties with the leak ended 200 epochs before the
// honest inactive validators' ejection.
func TestAggregationIsExact(t *testing.T) {
	const n, horizon, every = 30, 9000, 7
	cases := []LeakSim{
		{N: n, P0: 0.5, Mode: ByzAbsent},
		{N: n, P0: 0.6, Mode: ByzAbsent, DelayFinalization: true},
		{N: n, P0: 0.6, Beta0: 0.2, Mode: ByzDoubleVote},
		{N: n, P0: 0.5, Beta0: 0.2, Mode: ByzDoubleVote, DelayFinalization: true},
		{N: n, P0: 0.4, Beta0: 0.25, Mode: ByzSemiActive},
		{N: n, P0: 0.5, Beta0: 0.25, Mode: ByzSemiActive, DelayFinalization: true},
		{N: n, P0: 1, Beta0: 0.1, Mode: ByzSemiActive, DelayFinalization: true},
	}
	probe, err := cases[5].Run(horizon, 0)
	if err != nil || probe.A.EjectionEpoch <= 200 {
		t.Fatalf("corner probe: ejection at %d, %v", probe.A.EjectionEpoch, err)
	}
	corner := cases[5]
	corner.Spec = types.DefaultSpec()
	corner.Spec.ResidualPenalties = true
	corner.EndLeakAtEpoch = probe.A.EjectionEpoch - 200
	for _, l := range append(cases, corner) {
		got, err := l.Run(horizon, every)
		if err != nil {
			t.Fatal(err)
		}
		if want := perValidatorLeak(t, l, horizon, every); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v:\n  aggregate: %+v\n  per validator: %+v", l, summarize(got), summarize(want))
		}
	}
}

// summarize drops the traces from a Result, for a readable failure.
func summarize(r Result) Result {
	r.A.Trace, r.B.Trace = nil, nil
	return r
}

// perValidatorLeak is LeakSim's run with a registry row per validator on
// each branch: validators are numbered as LeakSim counts them (branch A's
// honest, branch B's honest, then the Byzantine), each attests by its own
// identity, one incentives.Engine.ProcessColumn per branch and epoch
// advances them under LeakSim's leak rule, and the trace sums their
// stakes. At every sampled epoch it also requires each member's stake and
// score to be its cohort's: the stake times the cohort's size is the
// cohort's sum, and the score is the first member's.
func perValidatorLeak(t *testing.T, l LeakSim, maxEpochs, sampleEvery int) Result {
	t.Helper()
	spec := l.Spec
	if spec.SlotsPerEpoch == 0 {
		spec = types.DefaultSpec()
	}
	nByz := int(math.Round(float64(l.N) * l.Beta0))
	nHonest := l.N - nByz
	nA := int(math.Round(float64(nHonest) * l.P0))
	eng := incentives.Engine{Spec: spec}

	// cohort[i][v] is v's cohort on branch i; size[i] counts the members.
	var cohort [2][]types.ValidatorIndex
	var size [2][3]int
	for i := range cohort {
		for v := 0; v < l.N; v++ {
			c := rowInactive
			switch {
			case v >= nHonest:
				c = rowByz
			case (v < nA) == (i == 0):
				c = rowActive
			}
			cohort[i] = append(cohort[i], c)
			size[i][c]++
		}
	}
	var regs [2]validator.Registry
	var res Result
	outs := [2]*BranchResult{&res.A, &res.B}
	var crossed [2]bool
	for i := range regs {
		regs[i].Reset(l.N, spec.MaxEffectiveBalance)
	}
	active := make([]bool, l.N)
	for epoch := types.Epoch(1); epoch <= types.Epoch(maxEpochs); epoch++ {
		for i := range regs {
			reg, out := &regs[i], outs[i]
			inactiveInSet := func() bool {
				for v, c := range cohort[i] {
					if c == rowInactive && reg.Stake(types.ValidatorIndex(v)) == 0 {
						return false
					}
				}
				return true
			}
			inLeak := out.ThresholdEpoch == 0 || l.DelayFinalization && inactiveInSet()
			if l.EndLeakAtEpoch != 0 && epoch >= l.EndLeakAtEpoch {
				inLeak = false
			}
			for v := range active {
				if v >= nHonest {
					active[v] = l.Mode == ByzDoubleVote || l.Mode == ByzSemiActive && uint64(epoch)%2 == uint64(i)
				} else {
					active[v] = (v < nA) == (i == 0) // honest: active on its own branch only
				}
			}
			eng.ProcessColumn(reg, active, inLeak, epoch)

			var stake [3]types.Gwei
			for v, c := range cohort[i] {
				stake[c] += reg.Stake(types.ValidatorIndex(v))
			}
			if !inactiveInSet() && out.EjectionEpoch == 0 {
				out.EjectionEpoch = epoch
			}
			act := stake[rowActive] + stake[rowByz]
			tot := act + stake[rowInactive]
			ratio, byzProp := 0.0, 0.0
			if tot > 0 {
				ratio, byzProp = float64(act)/float64(tot), float64(stake[rowByz])/float64(tot)
			}
			if byzProp > out.PeakByzProportion {
				out.PeakByzProportion, out.PeakByzEpoch = byzProp, epoch
			}
			crossed[i] = crossed[i] || byzProp > 1.0/3.0
			if out.ThresholdEpoch == 0 && ffg.Supermajority(act, tot) {
				out.ThresholdEpoch = epoch
			}
			if uint64(epoch)%uint64(sampleEvery) != 0 {
				continue
			}
			cols := reg.Columns()
			first := [3]int{-1, -1, -1}
			for v, c := range cohort[i] {
				if first[c] < 0 {
					first[c] = v
				}
				if types.Gwei(size[i][c])*reg.Stake(types.ValidatorIndex(v)) != stake[c] || cols.Scores[v] != cols.Scores[first[c]] {
					t.Fatalf("epoch %d branch %d: validator %d (stake %d, score %d) is not its cohort's (%d members, %d in all, score %d)",
						epoch, i, v, cols.Stakes[v], cols.Scores[v], size[i][c], stake[c], cols.Scores[first[c]])
				}
			}
			out.Trace = append(out.Trace, BranchTrace{
				Epoch: epoch, ActiveRatio: ratio, ByzProportion: byzProp,
				ActiveStake: stake[rowActive], InactiveStake: stake[rowInactive], ByzStake: stake[rowByz],
				InactiveInSet: inactiveInSet(), QuorumRegained: out.ThresholdEpoch != 0,
			})
		}
		if res.A.ThresholdEpoch != 0 && res.B.ThresholdEpoch != 0 && res.ConflictEpoch == 0 {
			res.ConflictEpoch = max(res.A.ThresholdEpoch, res.B.ThresholdEpoch) + 1
		}
	}
	res.CrossedOneThird = crossed[0] && crossed[1]
	return res
}
