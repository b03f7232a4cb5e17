package analytic

import (
	"math"

	"repro/internal/mathx"
)

// BounceWindow is Equation 14: the interval of honest-split proportions p0
// for which the probabilistic bouncing attack can continue indefinitely —
// (a) honest validators alone cannot justify (p0(1-beta0) < 2/3) and
// (b) honest plus withheld Byzantine votes can (p0(1-beta0)+beta0 > 2/3).
func BounceWindow(beta0 float64) (lo, hi float64) {
	lo = (2 - 3*beta0) / (3 * (1 - beta0))
	hi = 2 / (3 * (1 - beta0))
	return lo, hi
}

// BounceContinuationProbability is the paper's continuation estimate from
// Section 5.3: the attack proceeds for k epochs with probability
// (1 - (1-beta0)^j)^k, where j is the number of first slots of each epoch
// in which a Byzantine proposer must appear (the protocol parameter of the
// original probabilistic bouncing attack).
func BounceContinuationProbability(beta0 float64, j, k int) float64 {
	perEpoch := 1 - math.Pow(1-beta0, float64(j))
	return math.Pow(perEpoch, float64(k))
}

// BounceModel evaluates the stochastic stake model of Section 5.3 for an
// honest validator randomly re-assigned to one of the two branches each
// epoch with probability p0 / 1-p0.
type BounceModel struct {
	// P0 is the per-epoch probability of being on the observed branch.
	P0 float64
}

// Drift is V = 3/2: the mean inactivity-score increase per epoch of the
// convolved two-walk process (Equation 15 and following).
func (BounceModel) Drift() float64 { return mathx.ConvolvedDrift }

// Diffusion is D = 25 p0 (1-p0) (Equation 16).
func (m BounceModel) Diffusion() float64 { return mathx.ConvolvedDiffusion(m.P0) }

// StakePDF is Equation 18: the density of the stake s at epoch t,
//
//	P(s,t) = (2^26 / s) sqrt(1 / (4/3 pi D t^3)) exp(-(2^26 ln(s/32) + V t^2/2)^2 / (4/3 D t^3)).
func (m BounceModel) StakePDF(s, t float64) float64 {
	if s <= 0 || t <= 0 {
		return 0
	}
	d := m.Diffusion()
	v := m.Drift()
	varTerm := 4.0 / 3.0 * d * t * t * t
	arg := Quotient*math.Log(s/InitialStakeETH) + v*t*t/2
	return Quotient / s * math.Sqrt(1/(math.Pi*varTerm)) * math.Exp(-arg*arg/varTerm)
}

// StakeCDF is Equation 19: the log-normal cumulative distribution of the
// stake at epoch t,
//
//	F(s,t) = 1/2 + 1/2 erf( (2^26 ln(s/32) + V t^2/2) / sqrt(4/3 D t^3) ).
func (m BounceModel) StakeCDF(s, t float64) float64 {
	if s <= 0 {
		return 0
	}
	if t <= 0 {
		if s < InitialStakeETH {
			return 0
		}
		return 1
	}
	d := m.Diffusion()
	v := m.Drift()
	z := (Quotient*math.Log(s/InitialStakeETH) + v*t*t/2) / math.Sqrt(4.0/3.0*d*t*t*t)
	return mathx.ErfArg(z)
}

// CensoredStakeCDF is Equation 22: the cumulative distribution of the stake
// accounting for ejection below 16.75 ETH (mass collapsed to an atom,
// "stake becomes 0") and the 32 ETH cap (atom at 32):
//
//	F(x,t) = F(a,t) + H(x-a)[F(x,t)-F(a,t)] + H(x-b)[1-F(x,t)]
func (m BounceModel) CensoredStakeCDF(x, t float64) float64 {
	fa := m.StakeCDF(EjectionStakeETH, t)
	g := fa
	if x >= EjectionStakeETH {
		g += m.StakeCDF(x, t) - fa
	}
	if x >= InitialStakeETH {
		g += 1 - m.StakeCDF(x, t)
	}
	return mathx.Clamp(g, 0, 1)
}

// DistributionPoint samples the censored distribution for Figure 9
// rendering: the continuous interior density plus the two atom masses.
type DistributionPoint struct {
	// AtomEjected is the probability mass collapsed at ejection
	// (stake <= 16.75 at ejection time).
	AtomEjected float64
	// AtomCapped is the mass at the 32 ETH cap.
	AtomCapped float64
	// Interior evaluates the continuous density on (16.75, 32).
	Interior func(s float64) float64
}

// Distribution returns the censored stake distribution at epoch t
// (Equation 21): Dirac atoms at the censor points and the truncated
// log-normal density between them.
func (m BounceModel) Distribution(t float64) DistributionPoint {
	return DistributionPoint{
		AtomEjected: m.StakeCDF(EjectionStakeETH, t),
		AtomCapped:  1 - m.StakeCDF(InitialStakeETH, t),
		Interior: func(s float64) float64 {
			if s <= EjectionStakeETH || s >= InitialStakeETH {
				return 0
			}
			return m.StakePDF(s, t)
		},
	}
}

// ExceedProbability is Equation 24: the probability that the Byzantine
// stake proportion exceeds 1/3 at epoch t of the bouncing attack, i.e. the
// probability that an honest validator's stake has fallen below
// 2 beta0/(1-beta0) * sB(t), where sB follows the semi-active law. Byzantine
// validators are ejected at the semi-active ejection epoch, after which
// their proportion is zero.
func (m BounceModel) ExceedProbability(t, beta0 float64, params Params) float64 {
	if t >= params.SemiActiveEjectionEpoch {
		return 0
	}
	threshold := 2 * beta0 / (1 - beta0) * StakeSemiActive(t)
	return m.CensoredStakeCDF(threshold, t)
}
