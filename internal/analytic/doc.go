// Package analytic implements every closed-form and numeric model in the
// paper "Byzantine Attacks Exploiting Penalties in Ethereum PoS" (DSN 2024):
// the continuous stake laws of Section 4.3, the active-stake ratio curves
// and conflicting-finalization solvers of Sections 5.1-5.2 (Equations 5-13),
// and the probabilistic bouncing-attack distribution of Section 5.3
// (Equations 14-24).
//
// Two parameterizations are provided. PaperParams anchors the ejection
// epoch at 4685 (the value the paper reports and builds Tables 2-3, the
// 0.2421 threshold, and Figure 7 on). ContinuousParams derives the ejection
// epoch endogenously from the stake law, which crosses 16.75 ETH at
// t ~ 4660.7; the ~24-epoch gap is a documented discrepancy internal to the
// paper (see DESIGN.md).
//
// # Equation-to-function map
//
// Section 4 (inactivity leak):
//
//	Eq 1  score update (+4 inactive / -1 active) ... types.Spec constants,
//	      applied by incentives.Engine.ProcessColumn
//	Eq 2  s(t) = s(t-1) - I(t-1) s(t-1)/2^26 ..... incentives.Engine.ProcessColumn
//	      (integer), for the protocol's views and for core's cohort rows
//	Eq 3  s' = -I s / 2^26 ...................... StakeInactive, StakeSemiActive,
//	      StakeActive (closed-form solutions per behavior)
//
// Section 5.1 (honest-only conflicting finalization):
//
//	Eq 4/5  active-stake ratio .................. Params.ActiveRatioHonest
//	Eq 6    threshold epoch ..................... Params.ConflictEpochHonest
//
// Section 5.2 (Byzantine acceleration and the 1/3 threshold):
//
//	Eq 7-9  ratio with double-voting Byzantine,
//	        threshold epoch (closed form) ....... Params.ConflictEpochSlashing
//	Eq 10   ratio with semi-active Byzantine .... Params.ActiveRatioSemiActive,
//	        root solved by Params.ConflictEpochSemiActive (Brent)
//	Eq 11-13 beta_max at ejection >= 1/3,
//	        boundary in closed form ............. Params.ThresholdBeta0
//
// Section 5.3 (probabilistic bouncing attack):
//
//	Eq 14   attack window ....................... BounceWindow
//	Eq 15/16 score drift V and diffusion D ...... BounceModel.Drift,
//	        BounceModel.Diffusion
//	Eq 17   ds/dt = -I s / 2^26 ................. (same as Eq 3; integrated in
//	        BounceModel.StakeCDF's exponent)
//	Eq 18   stake density P(s, t) ............... BounceModel.StakePDF
//	Eq 19   stake CDF F(s, t) ................... BounceModel.StakeCDF
//	Eq 20-21 censored law (atoms at 16.75/32) ... BounceModel.Distribution
//	Eq 22   censored CDF ........................ BounceModel.CensoredStakeCDF
//	Eq 23/24 P[beta > 1/3] ...................... BounceModel.ExceedProbability;
//	        Monte-Carlo counterpart: core.BounceMC.ExceedProbability
//	(1-(1-beta0)^j)^k continuation .............. BounceContinuationProbability
package analytic
