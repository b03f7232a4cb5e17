package analytic

import "math"

// Paper constants (Sections 3-4).
const (
	// InitialStakeETH is the per-validator starting stake.
	InitialStakeETH = 32.0
	// EjectionStakeETH is the ejection threshold.
	EjectionStakeETH = 16.75
	// Quotient is the inactivity penalty quotient 2^26.
	Quotient = 1 << 26
	// PaperEjectionEpoch is the epoch at which the paper reports fully
	// inactive validators are ejected.
	PaperEjectionEpoch = 4685.0
	// PaperSemiActiveEjectionEpoch is the epoch at which the paper
	// reports semi-active validators are ejected (7652; the paper's
	// Section 5.3 also quotes "a total of 7653 epochs" for the
	// finalization-inclusive count).
	PaperSemiActiveEjectionEpoch = 7652.0
	// SupermajorityThreshold is the 2/3 quorum fraction.
	SupermajorityThreshold = 2.0 / 3.0
)

// StakeActive is the stake of an always-active validator (behavior (a)):
// constant 32 ETH during a leak.
func StakeActive(t float64) float64 {
	_ = t
	return InitialStakeETH
}

// StakeInactive is the stake law of an always-inactive validator
// (behavior (c)): s(t) = 32 e^{-t^2 / 2^25}.
func StakeInactive(t float64) float64 {
	return InitialStakeETH * math.Exp(-t*t/math.Exp2(25))
}

// StakeSemiActive is the stake law of a validator active every other epoch
// (behavior (b)): s(t) = 32 e^{-3 t^2 / 2^28}.
func StakeSemiActive(t float64) float64 {
	return InitialStakeETH * math.Exp(-3*t*t/math.Exp2(28))
}

// InactiveEjectionCrossing solves StakeInactive(t) = EjectionStakeETH:
// the endogenous ejection epoch of a fully inactive validator (~4660.7).
func InactiveEjectionCrossing() float64 {
	return math.Sqrt(math.Exp2(25) * math.Log(InitialStakeETH/EjectionStakeETH))
}

// SemiActiveEjectionCrossing solves StakeSemiActive(t) = EjectionStakeETH
// (~7610.9).
func SemiActiveEjectionCrossing() float64 {
	return math.Sqrt(math.Exp2(28) / 3 * math.Log(InitialStakeETH/EjectionStakeETH))
}

// Params selects the ejection anchoring for the ratio and conflict models.
type Params struct {
	// EjectionEpoch is the epoch at which fully inactive validators
	// leave the set, which snaps the active-stake ratio to 1.
	EjectionEpoch float64
	// SemiActiveEjectionEpoch is the epoch at which semi-active
	// validators leave the set.
	SemiActiveEjectionEpoch float64
}

// PaperParams returns the anchoring the paper reports (4685 / 7652); use it
// to regenerate the paper's tables and figures exactly.
func PaperParams() Params {
	return Params{
		EjectionEpoch:           PaperEjectionEpoch,
		SemiActiveEjectionEpoch: PaperSemiActiveEjectionEpoch,
	}
}

// ContinuousParams returns the endogenous anchoring derived from the stake
// laws themselves (~4660.7 / ~7610.9).
func ContinuousParams() Params {
	return Params{
		EjectionEpoch:           InactiveEjectionCrossing(),
		SemiActiveEjectionEpoch: SemiActiveEjectionCrossing(),
	}
}
