package analytic

import "math"

// ActiveRatioHonest is Equation 5: the fraction of a branch's stake held by
// active validators at epoch t of a leak, when a proportion p0 of all
// validators is active on the branch and the rest are inactive (honest-only
// setting, Section 5.1). Once inactive validators are ejected the ratio
// snaps to 1 (the jump visible in Figure 3 for p0 <= 0.5).
func (p Params) ActiveRatioHonest(t, p0 float64) float64 {
	if t >= p.EjectionEpoch {
		return 1
	}
	inactive := (1 - p0) * math.Exp(-t*t/math.Exp2(25))
	return p0 / (p0 + inactive)
}

// ActiveRatioSemiActive is Equation 10: the active-stake ratio on a branch
// when Byzantine validators alternate between branches (semi-active,
// non-slashable, Section 5.2.2). The Byzantine stake itself decays as
// StakeSemiActive.
func (p Params) ActiveRatioSemiActive(t, p0, beta0 float64) float64 {
	if t >= p.EjectionEpoch {
		return 1
	}
	byz := beta0 * math.Exp(-3*t*t/math.Exp2(28))
	honestActive := p0 * (1 - beta0)
	inactive := (1 - p0) * (1 - beta0) * math.Exp(-t*t/math.Exp2(25))
	return (honestActive + byz) / (honestActive + byz + inactive)
}

// ThresholdBeta0 solves Equation 13 = 1/3 for beta0 in closed form: the
// minimum initial Byzantine proportion that can exceed the 1/3 Safety
// threshold on a branch with honest-active proportion p0. Equation 13 is
// the maximum of Equation 11's semi-active Byzantine proportion, reached
// when the honest inactive validators are ejected:
// beta0 e / (p0 (1-beta0) + beta0 e), e = exp(-3 t_ej^2 / 2^28). For p0 = 0.5 this
// is the paper's 1/(1+4e^{-3*4685^2/2^28}) = 0.2421.
func (p Params) ThresholdBeta0(p0 float64) float64 {
	e := math.Exp(-3 * p.EjectionEpoch * p.EjectionEpoch / math.Exp2(28))
	// beta/(1-beta) = p0 / (2e)  =>  beta = p0 / (p0 + 2e).
	return p0 / (p0 + 2*e)
}
