// Package incentives implements the inactivity-leak penalty engine of the
// paper's Section 4 in exact integer (Gwei) arithmetic:
//
//   - inactivity scores (Equation 1): +4 per inactive epoch, -1 per active
//     epoch (floored at zero), with an extra flat -16 per epoch outside a
//     leak;
//   - inactivity penalties (Equation 2): during a leak, every validator
//     loses I(t-1) * s(t-1) / 2^26 at epoch t;
//   - ejection: validators whose stake falls to the ejection balance
//     (16.75 ETH) or below leave the validator set.
//
// The engine operates on a validator.Registry, which represents one branch
// view. Activity is branch-relative: the same validator can be active on
// one branch and inactive on the other during a fork.
package incentives

import (
	"math/bits"

	"repro/internal/types"
	"repro/internal/validator"
)

// Engine applies per-epoch incentive processing under a given spec.
type Engine struct {
	Spec types.Spec
}

// Summary reports what one epoch of processing did.
type Summary struct {
	// TotalPenalty is the stake burned from in-set validators this epoch.
	TotalPenalty types.Gwei
	// Ejected lists validators removed from the set this epoch.
	Ejected []types.ValidatorIndex
	// ActiveStake and TotalStake are measured after processing.
	ActiveStake types.Gwei
	TotalStake  types.Gwei
}

// ProcessColumn advances the registry by one epoch.
//
// active[v] reports whether validator v was deemed active this epoch on
// this branch (attested with a correct target checkpoint); a validator
// past the column's end is inactive. inLeak reports whether this view is
// currently in an inactivity leak. epoch is used to timestamp ejections.
//
// Per the paper's Equations 1-2, the penalty at epoch t uses the score and
// stake of epoch t-1, so penalties are applied before scores are updated.
//
// The sweep is one fused pass over the registry's columns — penalty,
// score update, ejection, and post-state measurement per validator — with
// no per-validator allocation. Per-validator processing is independent, so
// fusing is bit-identical to running the stages as separate sweeps. A
// validator's activity, stake and score, and the three totals, are carried
// in locals: each column is loaded and stored once per validator. The
// quotient of every spec the scenarios build is a power of two, and then
// the penalty's division is a shift. The Ejected slice is the only
// allocation and only happens in epochs that actually eject. The spec is
// read through the receiver and the columns through the registry's
// pointer, so a call copies neither onto its stack: the aggregate model
// sweeps three rows per call, where those copies cost more than the rows.
//
//gasper:noalloc
func (e *Engine) ProcessColumn(reg *validator.Registry, active []bool, inLeak bool, epoch types.Epoch) (sum Summary) {
	spec := &e.Spec
	q := spec.InactivityPenaltyQuotient
	shift, pow2 := uint(bits.TrailingZeros64(q)), q != 0 && q&(q-1) == 0
	var penalties, total, activeTotal types.Gwei
	cols := reg.Columns()
	n := len(cols.Stakes)
	stakes, scores, status, exit := cols.Stakes[:n], cols.Scores[:n], cols.Status[:n], cols.Exit[:n]

	for i, st := range status {
		if st != validator.Active {
			continue
		}
		isActive := i < len(active) && active[i]
		stake, score := stakes[i], scores[i]

		// Penalty first: I(t-1) * s(t-1) / quotient — during leaks,
		// and with ResidualPenalties whenever the score is positive.
		if inLeak || (spec.ResidualPenalties && score > 0) {
			var penalty types.Gwei
			if pow2 {
				penalty = types.Gwei(score * uint64(stake) >> shift)
			} else {
				penalty = types.Gwei(score * uint64(stake) / q)
			}
			after := stake.SaturatingSub(penalty)
			penalties += stake - after
			stake = after
		}

		// Score update (Equation 1).
		if isActive {
			score -= min(score, spec.InactivityScoreRecovery)
		} else {
			score += spec.InactivityScoreBias
		}
		// Flat recovery outside a leak.
		if !inLeak {
			score -= min(score, spec.InactivityScoreFlatRecovery)
		}
		stakes[i], scores[i] = stake, score

		// Ejection after penalties.
		if stake <= spec.EjectionBalance {
			status[i] = validator.Ejected
			exit[i] = epoch
			sum.Ejected = append(sum.Ejected, types.ValidatorIndex(i)) //gasper:alloc only epochs that eject allocate; the steady-state sweep never appends
			continue
		}

		// Post-state measurement, reusing the activity already read.
		total += stake
		if isActive {
			activeTotal += stake
		}
	}
	sum.TotalPenalty, sum.TotalStake, sum.ActiveStake = penalties, total, activeTotal
	return sum
}

// ProcessEpoch is ProcessColumn with activity asked of a callback: active(v)
// is consulted EXACTLY ONCE per in-set validator, and never for one out of
// the set, so an impure closure cannot give the penalty and the post-state
// measurement different answers. It fills a fresh column per call. Only
// the benchmark harness's incentives.process_epoch probe calls it.
func (e *Engine) ProcessEpoch(reg *validator.Registry, active func(types.ValidatorIndex) bool, inLeak bool, epoch types.Epoch) Summary {
	status := reg.Columns().Status
	column := make([]bool, len(status))
	for i, st := range status {
		column[i] = st == validator.Active && active(types.ValidatorIndex(i))
	}
	return e.ProcessColumn(reg, column, inLeak, epoch)
}
