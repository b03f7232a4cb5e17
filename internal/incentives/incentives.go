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
	"repro/internal/types"
	"repro/internal/validator"
)

// Engine applies per-epoch incentive processing under a given spec.
type Engine struct {
	Spec types.Spec
	// AttestationPenalty, if nonzero, is the flat per-epoch penalty for a
	// missed or incorrect attestation outside a leak. The paper notes
	// attestation penalties are dominated by inactivity penalties during
	// a leak, so the default is zero; the field exists for ablations.
	AttestationPenalty types.Gwei
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

// ProcessEpoch advances the registry by one epoch.
//
// active(v) must report whether validator v was deemed active this epoch on
// this branch (attested with a correct target checkpoint). inLeak reports
// whether this view is currently in an inactivity leak. epoch is used to
// timestamp ejections.
//
// Per the paper's Equations 1-2, the penalty at epoch t uses the score and
// stake of epoch t-1, so penalties are applied before scores are updated.
//
// The sweep is one fused pass over the registry's columns — penalty,
// score update, ejection, and post-state measurement per validator — with
// no per-validator allocation. Per-validator processing is independent, so
// fusing is bit-identical to running the stages as separate sweeps; what
// fusing guarantees on top is that active(v) is consulted EXACTLY ONCE per
// validator per epoch. (The pre-fusion sweep asked again during post-state
// measurement, doubling the callback cost over a long horizon and giving
// impure closures a chance to disagree with the penalty stage.) The
// Ejected slice is the only allocation and only happens in epochs that
// actually eject.
//
//gasper:noalloc
func (e Engine) ProcessEpoch(reg *validator.Registry, active func(types.ValidatorIndex) bool, inLeak bool, epoch types.Epoch) Summary {
	var sum Summary
	spec := e.Spec
	cols := reg.Columns()

	for i := range cols.Stakes {
		if cols.Status[i] != validator.Active {
			continue
		}
		isActive := active(types.ValidatorIndex(i))

		// Penalty first: I(t-1) * s(t-1) / quotient — during leaks,
		// and with ResidualPenalties whenever the score is positive.
		if inLeak || (spec.ResidualPenalties && cols.Scores[i] > 0) {
			penalty := types.Gwei(cols.Scores[i] * uint64(cols.Stakes[i]) / spec.InactivityPenaltyQuotient)
			applied := cols.Stakes[i]
			cols.Stakes[i] = cols.Stakes[i].SaturatingSub(penalty)
			sum.TotalPenalty += applied - cols.Stakes[i]
		} else if !isActive && e.AttestationPenalty > 0 {
			applied := cols.Stakes[i]
			cols.Stakes[i] = cols.Stakes[i].SaturatingSub(e.AttestationPenalty)
			sum.TotalPenalty += applied - cols.Stakes[i]
		}

		// Score update (Equation 1).
		if isActive {
			if cols.Scores[i] >= spec.InactivityScoreRecovery {
				cols.Scores[i] -= spec.InactivityScoreRecovery
			} else {
				cols.Scores[i] = 0
			}
		} else {
			cols.Scores[i] += spec.InactivityScoreBias
		}
		// Flat recovery outside a leak.
		if !inLeak {
			if cols.Scores[i] >= spec.InactivityScoreFlatRecovery {
				cols.Scores[i] -= spec.InactivityScoreFlatRecovery
			} else {
				cols.Scores[i] = 0
			}
		}

		// Ejection after penalties.
		if cols.Stakes[i] <= spec.EjectionBalance {
			cols.Status[i] = validator.Ejected
			cols.Exit[i] = epoch
			sum.Ejected = append(sum.Ejected, types.ValidatorIndex(i)) //gasper:alloc only epochs that eject allocate; the steady-state sweep never appends
			continue
		}

		// Post-state measurement, reusing the activity already read.
		sum.TotalStake += cols.Stakes[i]
		if isActive {
			sum.ActiveStake += cols.Stakes[i]
		}
	}
	return sum
}
