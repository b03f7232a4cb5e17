package incentives

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/types"
	"repro/internal/validator"
)

// newRegistry is a registry of n in-set validators holding stake each,
// built the way a simulation builds its views.
func newRegistry(n int, stake types.Gwei) *validator.Registry {
	reg := new(validator.Registry)
	reg.Reset(n, stake)
	return reg
}

// one is a one-row activity column.
func one(active bool) []bool { return []bool{active} }

func TestScoreDynamicsDuringLeak(t *testing.T) {
	e := Engine{Spec: types.DefaultSpec()}
	reg := newRegistry(2, types.MaxEffectiveBalanceGwei)
	active := []bool{true, false} // v1 inactive
	for i := 0; i < 10; i++ {
		e.ProcessColumn(reg, active, true, types.Epoch(i))
	}
	if got := reg.Columns().Scores[0]; got != 0 {
		t.Errorf("active validator score = %d, want 0", got)
	}
	if got := reg.Columns().Scores[1]; got != 40 {
		t.Errorf("inactive validator score = %d, want 4*10 = 40", got)
	}
}

func TestScoreRecoveryOutsideLeak(t *testing.T) {
	e := Engine{Spec: types.DefaultSpec()}
	reg := newRegistry(1, types.MaxEffectiveBalanceGwei)
	reg.Columns().Scores[0] = 100
	// Active outside leak: -1 (recovery) then -16 (flat) per epoch.
	e.ProcessColumn(reg, one(true), false, 0)
	if got := reg.Columns().Scores[0]; got != 83 {
		t.Errorf("score after one non-leak active epoch = %d, want 83", got)
	}
	// Inactive outside leak: +4 then -16 = net -12.
	reg.Columns().Scores[0] = 100
	e.ProcessColumn(reg, one(false), false, 0)
	if got := reg.Columns().Scores[0]; got != 88 {
		t.Errorf("score after one non-leak inactive epoch = %d, want 88", got)
	}
	// Scores floor at zero.
	reg.Columns().Scores[0] = 5
	e.ProcessColumn(reg, one(true), false, 0)
	if got := reg.Columns().Scores[0]; got != 0 {
		t.Errorf("score must floor at zero, got %d", got)
	}
}

func TestNoPenaltyOutsideLeak(t *testing.T) {
	e := Engine{Spec: types.DefaultSpec()}
	reg := newRegistry(1, types.MaxEffectiveBalanceGwei)
	reg.Columns().Scores[0] = 1000
	sum := e.ProcessColumn(reg, one(false), false, 0)
	if sum.TotalPenalty != 0 {
		t.Errorf("no inactivity penalty outside leak, got %d", sum.TotalPenalty)
	}
	if reg.Stake(0) != types.MaxEffectiveBalanceGwei {
		t.Errorf("stake changed outside leak: %d", reg.Stake(0))
	}
}

func TestPenaltyMatchesEquation2(t *testing.T) {
	e := Engine{Spec: types.DefaultSpec()}
	reg := newRegistry(1, types.MaxEffectiveBalanceGwei)
	inactive := one(false)

	// Epoch 0: score 0 -> no penalty; score becomes 4.
	e.ProcessColumn(reg, inactive, true, 0)
	if reg.Stake(0) != types.MaxEffectiveBalanceGwei {
		t.Errorf("no penalty with zero score, stake = %d", reg.Stake(0))
	}
	// Epoch 1: penalty = 4 * s / 2^26.
	want := reg.Stake(0) - types.Gwei(4*uint64(reg.Stake(0))/types.InactivityPenaltyQuotient)
	e.ProcessColumn(reg, inactive, true, 1)
	if reg.Stake(0) != want {
		t.Errorf("stake after first penalty = %d, want %d", reg.Stake(0), want)
	}
}

// TestInactiveStakeTracksContinuousModel verifies that the discrete integer
// engine stays within 0.5% of the paper's continuous law s(t) = 32 e^{-t^2 / 2^25}
// over the first 3000 epochs of a leak (Section 4.3, behavior (c)).
func TestInactiveStakeTracksContinuousModel(t *testing.T) {
	e := Engine{Spec: types.DefaultSpec()}
	reg := newRegistry(1, types.MaxEffectiveBalanceGwei)
	inactive := one(false)
	for epoch := 1; epoch <= 3000; epoch++ {
		e.ProcessColumn(reg, inactive, true, types.Epoch(epoch))
		if epoch%1000 == 0 {
			tt := float64(epoch)
			want := 32 * math.Exp(-tt*tt/math.Pow(2, 25))
			got := reg.Columns().Stakes[0].ETH()
			if rel := math.Abs(got-want) / want; rel > 0.005 {
				t.Errorf("epoch %d: stake = %.4f ETH, continuous model %.4f (rel err %.4f)",
					epoch, got, want, rel)
			}
		}
	}
}

// TestSemiActiveStakeTracksContinuousModel does the same for the semi-active
// law s(t) = 32 e^{-3 t^2 / 2^28} (behavior (b)).
func TestSemiActiveStakeTracksContinuousModel(t *testing.T) {
	e := Engine{Spec: types.DefaultSpec()}
	reg := newRegistry(1, types.MaxEffectiveBalanceGwei)
	for epoch := 1; epoch <= 4000; epoch++ {
		// Active every other epoch.
		isActive := epoch%2 == 0
		e.ProcessColumn(reg, one(isActive), true, types.Epoch(epoch))
		if epoch%2000 == 0 {
			tt := float64(epoch)
			want := 32 * math.Exp(-3*tt*tt/math.Pow(2, 28))
			got := reg.Columns().Stakes[0].ETH()
			if rel := math.Abs(got-want) / want; rel > 0.005 {
				t.Errorf("epoch %d: stake = %.4f ETH, continuous model %.4f (rel err %.4f)",
					epoch, got, want, rel)
			}
		}
	}
}

// TestInactiveEjectionEpoch pins the ejection epoch of a fully inactive
// validator under exact integer arithmetic. The paper's continuous law
// crosses 16.75 ETH at t ~ 4661 (the paper reports 4685; see DESIGN.md on
// this discrepancy). The discrete engine must land within a few epochs of
// the continuous crossing.
func TestInactiveEjectionEpoch(t *testing.T) {
	e := Engine{Spec: types.DefaultSpec()}
	reg := newRegistry(1, types.MaxEffectiveBalanceGwei)
	inactive := one(false)
	ejectedAt := 0
	for epoch := 1; epoch <= 5000; epoch++ {
		sum := e.ProcessColumn(reg, inactive, true, types.Epoch(epoch))
		if len(sum.Ejected) > 0 {
			ejectedAt = epoch
			break
		}
	}
	if ejectedAt == 0 {
		t.Fatal("inactive validator never ejected")
	}
	if ejectedAt < 4650 || ejectedAt > 4675 {
		t.Errorf("ejection epoch = %d, want ~4661 (continuous-model crossing)", ejectedAt)
	}
	if reg.Columns().Status[0] == validator.Active {
		t.Error("validator still in set after ejection")
	}
}

// TestSemiActiveEjectionEpoch pins the semi-active ejection near the
// continuous crossing t ~ 7611 (paper reports 7652).
func TestSemiActiveEjectionEpoch(t *testing.T) {
	e := Engine{Spec: types.DefaultSpec()}
	reg := newRegistry(1, types.MaxEffectiveBalanceGwei)
	ejectedAt := 0
	for epoch := 1; epoch <= 8000; epoch++ {
		isActive := epoch%2 == 0
		sum := e.ProcessColumn(reg, one(isActive), true, types.Epoch(epoch))
		if len(sum.Ejected) > 0 {
			ejectedAt = epoch
			break
		}
	}
	if ejectedAt == 0 {
		t.Fatal("semi-active validator never ejected")
	}
	if ejectedAt < 7590 || ejectedAt > 7640 {
		t.Errorf("ejection epoch = %d, want ~7611 (continuous-model crossing)", ejectedAt)
	}
}

func TestActiveValidatorNeverPenalized(t *testing.T) {
	e := Engine{Spec: types.DefaultSpec()}
	reg := newRegistry(1, types.MaxEffectiveBalanceGwei)
	for epoch := 1; epoch <= 1000; epoch++ {
		e.ProcessColumn(reg, one(true), true, types.Epoch(epoch))
	}
	if reg.Stake(0) != types.MaxEffectiveBalanceGwei {
		t.Errorf("active validator lost stake: %d", reg.Stake(0))
	}
	if reg.Columns().Scores[0] != 0 {
		t.Errorf("active validator score = %d, want 0", reg.Columns().Scores[0])
	}
}

func TestExitedValidatorsSkipped(t *testing.T) {
	e := Engine{Spec: types.DefaultSpec()}
	reg := newRegistry(2, types.MaxEffectiveBalanceGwei)
	reg.Slash(1, 0)
	before := reg.Columns().Stakes[1]
	sum := e.ProcessColumn(reg, []bool{false, false}, true, 1)
	if reg.Columns().Stakes[1] != before {
		t.Error("slashed validator must not receive leak penalties")
	}
	if reg.Columns().Scores[1] != 0 {
		t.Error("slashed validator score must not change")
	}
	// Summary counts only in-set validators.
	if sum.TotalStake != reg.Stake(0) {
		t.Errorf("TotalStake = %d, want %d", sum.TotalStake, reg.Stake(0))
	}
}

func TestSummaryMeasurements(t *testing.T) {
	e := Engine{Spec: types.DefaultSpec()}
	const stake = 100 * types.GweiPerETH
	reg := newRegistry(4, stake)
	sum := e.ProcessColumn(reg, []bool{true, true, false, false}, false, 0)
	if sum.TotalStake != 4*stake {
		t.Errorf("TotalStake = %d, want %d", sum.TotalStake, 4*stake)
	}
	if sum.ActiveStake != 2*stake {
		t.Errorf("ActiveStake = %d, want %d", sum.ActiveStake, 2*stake)
	}
}

func TestCompressedSpecLeaksFaster(t *testing.T) {
	fast := Engine{Spec: types.CompressedSpec(1 << 16)}
	reg := newRegistry(1, types.MaxEffectiveBalanceGwei)
	inactive := one(false)
	ejectedAt := 0
	for epoch := 1; epoch <= 200; epoch++ {
		sum := fast.ProcessColumn(reg, inactive, true, types.Epoch(epoch))
		if len(sum.Ejected) > 0 {
			ejectedAt = epoch
			break
		}
	}
	if ejectedAt == 0 {
		t.Fatal("compressed spec: validator never ejected within 200 epochs")
	}
	// sqrt(2^26 / 2^16) compression: ejection around 4661/sqrt(65536) ~ 18.
	if ejectedAt > 40 {
		t.Errorf("compressed ejection epoch = %d, want tens of epochs", ejectedAt)
	}
}

func TestResidualPenaltiesOutsideLeak(t *testing.T) {
	spec := types.DefaultSpec()
	spec.ResidualPenalties = true
	e := Engine{Spec: spec}
	reg := newRegistry(1, types.MaxEffectiveBalanceGwei)
	reg.Columns().Scores[0] = 10000
	before := reg.Stake(0)
	// Outside a leak, a scored validator still pays I*s/2^26.
	sum := e.ProcessColumn(reg, one(true), false, 0)
	wantPenalty := types.Gwei(10000 * uint64(before) / types.InactivityPenaltyQuotient)
	if got := before - reg.Stake(0); got != wantPenalty {
		t.Errorf("residual penalty = %d, want %d", got, wantPenalty)
	}
	if sum.TotalPenalty != wantPenalty {
		t.Errorf("summary penalty = %d, want %d", sum.TotalPenalty, wantPenalty)
	}
	// A zero-score validator pays nothing.
	reg2 := newRegistry(1, types.MaxEffectiveBalanceGwei)
	e.ProcessColumn(reg2, one(true), false, 0)
	if reg2.Stake(0) != types.MaxEffectiveBalanceGwei {
		t.Error("zero-score validator must not pay residual penalties")
	}
}

// TestScoreNeverNegativeProperty: no activity pattern can drive the score
// negative (it is unsigned; the engine must floor, not wrap).
func TestScoreNeverNegativeProperty(t *testing.T) {
	e := Engine{Spec: types.DefaultSpec()}
	f := func(pattern []bool, leakBits uint8) bool {
		reg := newRegistry(1, types.MaxEffectiveBalanceGwei)
		for i, active := range pattern {
			inLeak := leakBits&(1<<(i%8)) != 0
			e.ProcessColumn(reg, one(active), inLeak, types.Epoch(i))
			if reg.Columns().Scores[0] > 1<<40 {
				return false // wrapped around
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestStakeMonotoneNonIncreasingProperty: no activity pattern ever
// increases stake (the engine has no rewards).
func TestStakeMonotoneNonIncreasingProperty(t *testing.T) {
	e := Engine{Spec: types.DefaultSpec()}
	f := func(pattern []bool) bool {
		reg := newRegistry(1, types.MaxEffectiveBalanceGwei)
		prev := reg.Columns().Stakes[0]
		for i, active := range pattern {
			e.ProcessColumn(reg, one(active), true, types.Epoch(i))
			cur := reg.Columns().Stakes[0]
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestProcessEpochConsultsActivityOncePerValidator pins the callback
// shim's contract: active(v) runs EXACTLY once per in-set validator per
// epoch, and never for one out of the set. The pre-fusion sweep asked a
// second time during post-state measurement, which doubled the callback
// cost at long horizons and let an impure closure disagree with the
// penalty stage.
func TestProcessEpochConsultsActivityOncePerValidator(t *testing.T) {
	const n = 64
	e := Engine{Spec: types.CompressedSpec(1 << 16)}
	reg := newRegistry(n, e.Spec.MaxEffectiveBalance)
	reg.Columns().Status[7] = validator.Ejected // out-of-set validators are never consulted
	calls := make(map[types.ValidatorIndex]int)
	active := func(v types.ValidatorIndex) bool {
		calls[v]++
		return v%2 == 0
	}
	sum := e.ProcessEpoch(reg, active, true, 1)
	for v, c := range calls {
		if c != 1 {
			t.Errorf("active(%d) called %d times, want exactly 1", v, c)
		}
	}
	if len(calls) != n-1 {
		t.Errorf("active consulted for %d validators, want %d (out-of-set skipped)", len(calls), n-1)
	}
	if _, ok := calls[7]; ok {
		t.Error("active consulted for an ejected validator")
	}
	// The measurement must reuse the SAME answer the penalty stage saw:
	// an impure closure cannot split the two.
	if sum.ActiveStake == 0 || sum.ActiveStake >= sum.TotalStake {
		t.Errorf("post-state measurement inconsistent: active=%d total=%d", sum.ActiveStake, sum.TotalStake)
	}
}

// referenceEpoch is Equations 1-2 and the ejection rule written out for one
// validator at a time, with the quotient always divided: what ProcessColumn
// must do to every column and report in its summary.
func referenceEpoch(e Engine, cols *validator.Columns, active []bool, inLeak bool, epoch types.Epoch) Summary {
	spec := e.Spec
	var sum Summary
	for v := range cols.Stakes {
		if cols.Status[v] != validator.Active {
			continue
		}
		stake, score := cols.Stakes[v], cols.Scores[v]
		var penalty types.Gwei
		if inLeak || spec.ResidualPenalties && score > 0 {
			penalty = min(types.Gwei(score*uint64(stake)/spec.InactivityPenaltyQuotient), stake)
		}
		stake -= penalty
		sum.TotalPenalty += penalty
		if active[v] {
			score = max(score, spec.InactivityScoreRecovery) - spec.InactivityScoreRecovery
		} else {
			score += spec.InactivityScoreBias
		}
		if !inLeak {
			score = max(score, spec.InactivityScoreFlatRecovery) - spec.InactivityScoreFlatRecovery
		}
		cols.Stakes[v], cols.Scores[v] = stake, score
		if stake <= spec.EjectionBalance {
			cols.Status[v], cols.Exit[v] = validator.Ejected, epoch
			sum.Ejected = append(sum.Ejected, types.ValidatorIndex(v))
			continue
		}
		sum.TotalStake += stake
		if active[v] {
			sum.ActiveStake += stake
		}
	}
	return sum
}

// TestProcessEpochMatchesReference runs the sweep against referenceEpoch
// over a registry of a thousand validators, at the paper's quotient
// (2^26), a compressed power of two (2^10) and a quotient that is not a
// power of two, so the shift and the division are both pinned. The
// registry holds random stakes and scores, out-of-set validators, and two
// scoreless validators no penalty moves: one at exactly the ejection
// balance, which leaves the set, and one a Gwei above it, which stays.
// Each case runs twice: with a column as long as the registry, and with
// one that stops short of it, whose missing tail must read as inactive.
func TestProcessEpochMatchesReference(t *testing.T) {
	const n = 1037
	specs := map[string]types.Spec{
		"2^26":   types.DefaultSpec(),
		"2^10":   types.CompressedSpec(1 << 16),
		"2^26/3": types.CompressedSpec(3),
	}
	for name, spec := range specs {
		for _, inLeak := range []bool{true, false} {
			for _, residual := range []bool{false, true} {
				spec := spec
				spec.ResidualPenalties = residual
				e := Engine{Spec: spec}
				rng := rand.New(rand.NewSource(int64(spec.InactivityPenaltyQuotient)))
				reg := newRegistry(n, spec.MaxEffectiveBalance)
				cols := reg.Columns()
				active := make([]bool, n)
				for v := range active {
					active[v] = rng.Intn(3) > 0
					cols.Stakes[v] = spec.EjectionBalance + types.Gwei(rng.Int63n(int64(spec.MaxEffectiveBalance-spec.EjectionBalance)))
					cols.Scores[v] = uint64(rng.Intn(5000))
				}
				cols.Status[3], cols.Status[513] = validator.Slashed, validator.Ejected
				for v, above := range map[int]types.Gwei{511: 0, 1024: 1} {
					active[v], cols.Scores[v] = false, 0
					cols.Stakes[v] = spec.EjectionBalance + above
				}
				for _, length := range []int{n, 700} {
					// The short column's backing array still holds the
					// random tail, which the sweep must not read.
					reg, ref := reg.Clone(), reg.Clone()
					want := referenceEpoch(e, ref.Columns(), append(slices.Clone(active[:length]), make([]bool, n-length)...), inLeak, 9)
					got := e.ProcessColumn(reg, active[:length], inLeak, 9)
					at := fmt.Sprintf("quotient %s, leak %t, residual %t, column %d", name, inLeak, residual, length)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: summary %+v, reference %+v", at, got, want)
					}
					if !reflect.DeepEqual(reg.Columns(), ref.Columns()) {
						t.Errorf("%s: the registry differs from the reference's", at)
					}
					if st := reg.Columns().Status; st[511] != validator.Ejected || st[1024] != validator.Active {
						t.Errorf("%s: statuses at and above the ejection balance: %v, %v", at, st[511], st[1024])
					}
				}
			}
		}
	}
}
