// Package gasperleak is the public API of the reproduction of "Byzantine
// Attacks Exploiting Penalties in Ethereum PoS" (Pavloff, Amoussou-Guenou,
// Tucci-Piergiovanni — DSN 2024).
//
// It exposes three layers:
//
//   - the analytic models of the paper (stake laws, active-ratio curves,
//     conflicting-finalization solvers, and the bouncing-attack stake
//     distribution — Equations 1-24);
//   - the paper-scale scenario engines (aggregate two-branch leak
//     simulation and the bouncing Monte-Carlo), in exact integer Gwei
//     arithmetic;
//   - the full protocol simulator (block tree, LMD-GHOST, Casper FFG,
//     attestations, slashing, partitionable network, adversaries), for
//     mechanism-level experiments.
//
// Quick start:
//
//	res, err := gasperleak.LeakSim{N: 10000, P0: 0.5, Beta0: 0.2,
//	    Mode: gasperleak.ByzDoubleVote}.Run(9000, 0)
//	// res.ConflictEpoch ~ 3108: conflicting finalization in ~2 weeks.
package gasperleak

import (
	"repro/internal/analytic"
	"repro/internal/types"
)

// Re-exported protocol primitives.
type (
	// Slot is a 12-second protocol time unit.
	Slot = types.Slot
	// Epoch is a 32-slot protocol time unit.
	Epoch = types.Epoch
	// Gwei is a stake amount in 10^-9 ETH.
	Gwei = types.Gwei
	// ValidatorIndex identifies a validator.
	ValidatorIndex = types.ValidatorIndex
	// Checkpoint is a (block, epoch) pair.
	Checkpoint = types.Checkpoint
	// Spec bundles the protocol constants of the analysis.
	Spec = types.Spec
)

// DefaultSpec returns the paper's protocol constants.
func DefaultSpec() Spec { return types.DefaultSpec() }

// CompressedSpec returns a spec with the penalty quotient divided by
// factor, compressing leak time scales by ~sqrt(factor) for fast
// experiments with unchanged mechanisms.
func CompressedSpec(factor uint64) Spec { return types.CompressedSpec(factor) }

// Re-exported analytic models (paper Equations 1-24).
type (
	// AnalyticParams selects the ejection anchoring of the continuous
	// models.
	AnalyticParams = analytic.Params
	// BounceModel is the Section 5.3 stochastic stake model.
	BounceModel = analytic.BounceModel
	// Behavior selects the Byzantine strategy in conflict solvers.
	Behavior = analytic.Behavior
	// BranchConflict reports per-branch quorum and conflict epochs.
	BranchConflict = analytic.BranchConflict
)

// Byzantine behaviors for the analytic conflict solvers.
const (
	// HonestOnly is Scenario 5.1.
	HonestOnly = analytic.HonestOnly
	// WithSlashing is Scenario 5.2.1 (double voting).
	WithSlashing = analytic.WithSlashing
	// WithoutSlashing is Scenario 5.2.2 (semi-active).
	WithoutSlashing = analytic.WithoutSlashing
)

// PaperParams anchors the analytic models the way the paper reports them
// (ejection at epoch 4685).
func PaperParams() AnalyticParams { return analytic.PaperParams() }

// BounceWindow returns the Equation 14 interval of honest splits for which
// the probabilistic bouncing attack can continue.
func BounceWindow(beta0 float64) (lo, hi float64) { return analytic.BounceWindow(beta0) }

// BounceContinuationProbability is the (1-(1-beta0)^j)^k estimate of the
// attack lasting k epochs.
func BounceContinuationProbability(beta0 float64, j, k int) float64 {
	return analytic.BounceContinuationProbability(beta0, j, k)
}
