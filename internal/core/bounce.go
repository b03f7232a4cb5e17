package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/incentives"
	"repro/internal/types"
	"repro/internal/validator"
)

// BounceMC is the per-validator Monte-Carlo of the probabilistic bouncing
// attack with the inactivity leak (paper Section 5.3). Each epoch, every
// honest validator lands on branch A with probability P0 and on branch B
// otherwise (the Figure 8 Markov chain); Byzantine validators are
// semi-active on each branch (active at alternating epochs). Both branches
// keep their own ledgers with the exact integer score/penalty arithmetic,
// including the score floor at zero that the paper's closed-form analysis
// deliberately ignores.
type BounceMC struct {
	// Spec holds protocol constants.
	Spec types.Spec
	// NHonest is the number of honest validators tracked individually.
	NHonest int
	// Beta0 is the initial Byzantine stake proportion.
	Beta0 float64
	// P0 is the per-epoch probability of an honest validator being
	// active on branch A.
	P0 float64
	// Seed drives the placement coins.
	Seed int64
	// UnboundedScores removes the score floor at zero, matching the
	// paper's analytical simplification exactly (an ablation knob).
	UnboundedScores bool
}

// BouncePoint samples the attack state at one epoch.
type BouncePoint struct {
	Epoch types.Epoch
	// BetaA and BetaB are the aggregate Byzantine stake proportions on
	// each branch's ledger.
	BetaA, BetaB float64
	// FracBelowA is the fraction of honest validators whose branch-A
	// stake satisfies the paper's Equation 23 crossing condition
	// s < 2 beta0/(1-beta0) * sB (ejected validators count as below:
	// their stake collapsed to the Equation 20 atom). This is the
	// Monte-Carlo counterpart of the Equation 24 probability.
	FracBelowA float64
	// MeanHonestStakeA is the mean honest stake (ETH) on branch A.
	MeanHonestStakeA float64
	// ByzStake is the per-Byzantine-validator stake in ETH (semi-active
	// law).
	ByzStake float64
	// ByzEjected reports whether the Byzantine validators left the set.
	ByzEjected bool
}

// honestState is one honest validator's per-branch ledger entry.
type honestState struct {
	stake [2]types.Gwei
	score [2]int64
	inSet [2]bool
}

// RunContext simulates one attack trajectory for maxEpochs epochs, sampling
// every sampleEvery epochs (plus the epoch where beta first exceeds 1/3, if
// any). It returns the samples and the first epoch at which the Byzantine
// proportion exceeded 1/3 on either branch (0 = never). Cancellation is
// cooperative: the epoch loop checks ctx every cancelCheckEvery epochs and
// returns ctx.Err() once cancelled.
func (b BounceMC) RunContext(ctx context.Context, maxEpochs, sampleEvery int) ([]BouncePoint, types.Epoch, error) {
	if b.NHonest <= 0 || b.P0 < 0 || b.P0 > 1 || b.Beta0 < 0 || b.Beta0 >= 1 {
		return nil, 0, fmt.Errorf("%w: %+v", ErrBadParams, b)
	}
	spec := b.Spec
	if spec.SlotsPerEpoch == 0 {
		spec = types.DefaultSpec()
	}
	rng := rand.New(rand.NewSource(b.Seed))

	// Byzantine cohort: count chosen so that the initial proportion is
	// beta0 given NHonest honest validators. Rounded, not truncated: the
	// Equation 23 threshold is sensitive to the count at the sub-percent
	// level, which matters because the honest stake dispersion is itself
	// sub-percent.
	nByz := uint64(math.Round(float64(b.NHonest) * b.Beta0 / (1 - b.Beta0)))
	// Each branch's Byzantine cohort is a one-row registry, advanced by the
	// protocol's incentive sweep: the row stands for each of the nByz
	// members.
	eng := incentives.Engine{Spec: spec}
	var byz [2]validator.Registry
	for i := range byz {
		byz[i].Reset(1, spec.MaxEffectiveBalance)
	}

	// The honest ledger keeps its own loop: the UnboundedScores ablation
	// needs signed scores, which a registry's score column cannot hold.
	honest := make([]honestState, b.NHonest)
	for i := range honest {
		honest[i] = honestState{
			stake: [2]types.Gwei{spec.MaxEffectiveBalance, spec.MaxEffectiveBalance},
			inSet: [2]bool{true, true},
		}
	}

	var samples []BouncePoint
	var crossedAt types.Epoch

	measure := func(epoch types.Epoch) BouncePoint {
		var pt BouncePoint
		pt.Epoch = epoch
		var honestTot [2]types.Gwei
		var meanA float64
		var countA, below int
		byzInSet := byz[0].Stake(0) != 0
		byzStake := byz[0].Columns().Stakes[0] // kept past ejection, for ByzStake
		// Equation 23 crossing condition for a single honest validator
		// i on branch A: beta(t) > 1/3 <=> nHonest*s_i < 2*nByz*sB.
		// Ejected validators have s_i = 0 (the Equation 20 atom) and
		// always satisfy it. The comparison stays in exact integers;
		// the magnitudes (<= 2^45 Gwei times counts <= 2^20) cannot
		// overflow uint64.
		rhs := 2 * nByz * uint64(byzStake)
		for i := range honest {
			h := &honest[i]
			for br := 0; br < 2; br++ {
				if h.inSet[br] {
					honestTot[br] += h.stake[br]
				}
			}
			si := uint64(0)
			if h.inSet[0] {
				si = uint64(h.stake[0])
				meanA += h.stake[0].ETH()
				countA++
			}
			if byzInSet && uint64(b.NHonest)*si < rhs {
				below++
			}
		}
		if byzInSet {
			pt.FracBelowA = float64(below) / float64(b.NHonest)
		}
		if countA > 0 {
			pt.MeanHonestStakeA = meanA / float64(countA)
		}
		byzTot := [2]types.Gwei{types.Gwei(nByz) * byz[0].Stake(0), types.Gwei(nByz) * byz[1].Stake(0)}
		if t := honestTot[0] + byzTot[0]; t > 0 {
			pt.BetaA = float64(byzTot[0]) / float64(t)
		}
		if t := honestTot[1] + byzTot[1]; t > 0 {
			pt.BetaB = float64(byzTot[1]) / float64(t)
		}
		pt.ByzStake = byzStake.ETH()
		pt.ByzEjected = !byzInSet
		return pt
	}

	for epoch := types.Epoch(1); epoch <= types.Epoch(maxEpochs); epoch++ {
		if uint64(epoch)%cancelCheckEvery == 1 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		// Byzantine semi-activity: active on branch (epoch mod 2). An
		// empty cohort never steps.
		for br := 0; nByz > 0 && br < 2; br++ {
			active := [1]bool{uint64(epoch)%2 == uint64(br)}
			eng.ProcessColumn(&byz[br], active[:], true, epoch)
		}
		// Honest placement coin and per-branch integer accounting.
		for i := range honest {
			onA := rng.Float64() < b.P0
			for br := 0; br < 2; br++ {
				h := &honest[i]
				if !h.inSet[br] {
					continue
				}
				score := h.score[br]
				if score > 0 {
					penalty := types.Gwei(uint64(score) * uint64(h.stake[br]) / spec.InactivityPenaltyQuotient)
					h.stake[br] = h.stake[br].SaturatingSub(penalty)
				}
				active := (br == 0) == onA
				if active {
					score -= int64(spec.InactivityScoreRecovery)
				} else {
					score += int64(spec.InactivityScoreBias)
				}
				if !b.UnboundedScores && score < 0 {
					score = 0
				}
				h.score[br] = score
				if h.stake[br] <= spec.EjectionBalance {
					h.inSet[br] = false
				}
			}
		}

		pt := measure(epoch)
		if crossedAt == 0 && (pt.BetaA > 1.0/3.0 || pt.BetaB > 1.0/3.0) {
			crossedAt = epoch
			samples = append(samples, pt)
		} else if sampleEvery > 0 && uint64(epoch)%uint64(sampleEvery) == 0 {
			samples = append(samples, pt)
		}
	}
	return samples, crossedAt, nil
}

// ExceedProbability estimates the paper's Equation 24 probability — that a
// randomly placed honest validator's stake has fallen far enough for the
// Byzantine proportion proxy to exceed 1/3 — at the given epochs, averaged
// over `runs` independent trajectories (Figure 10's Monte-Carlo
// counterpart).
func (b BounceMC) ExceedProbability(epochs []types.Epoch, runs int) ([]float64, error) {
	return b.ExceedProbabilityContext(context.Background(), epochs, runs)
}

// ExceedProbabilityContext is ExceedProbability with cooperative
// cancellation threaded into every underlying trajectory.
func (b BounceMC) ExceedProbabilityContext(ctx context.Context, epochs []types.Epoch, runs int) ([]float64, error) {
	if len(epochs) == 0 || runs <= 0 {
		return nil, fmt.Errorf("%w: no epochs or runs", ErrBadParams)
	}
	maxEpoch := epochs[0]
	for _, e := range epochs {
		if e > maxEpoch {
			maxEpoch = e
		}
	}
	sums := make([]float64, len(epochs))
	for r := 0; r < runs; r++ {
		mc := b
		mc.Seed = b.Seed + int64(r)*7919
		samples, _, err := mc.RunContext(ctx, int(maxEpoch), 1)
		if err != nil {
			return nil, err
		}
		byEpoch := make(map[types.Epoch]BouncePoint, len(samples))
		for _, s := range samples {
			byEpoch[s.Epoch] = s
		}
		for i, e := range epochs {
			if s, ok := byEpoch[e]; ok {
				sums[i] += s.FracBelowA
			}
		}
	}
	out := make([]float64, len(epochs))
	for i, s := range sums {
		out[i] = s / float64(runs)
	}
	return out, nil
}
