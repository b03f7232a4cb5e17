// Package core implements the paper's five analysis scenarios at full paper
// scale. It complements the node-level protocol simulator (internal/sim)
// with two engines. Their cohorts of identical validators are registry
// rows, one per cohort, whose inactivity scores, penalties and ejections
// (Equations 1-2) are the protocol's one implementation,
// incentives.Engine.ProcessColumn:
//
//   - LeakSim: an aggregate two-branch leak simulation over validator
//     cohorts (honest active per branch, Byzantine), which regenerates the
//     conflicting-finalization epochs of Tables 2-3, the ratio curves of
//     Figure 3, the speedup curves of Figure 6, and the threshold region of
//     Figure 7 — at the paper's own 4685-epoch scale;
//   - BounceMC: a per-validator Monte-Carlo of the probabilistic bouncing
//     attack (Section 5.3) with branch-accurate ledgers, which regenerates
//     Figure 10 mechanistically and cross-checks the paper's censored
//     log-normal model (Equation 24). Its Byzantine cohorts are registry
//     rows; its honest ledger keeps a loop of its own, for the signed
//     scores of the UnboundedScores ablation.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/ffg"
	"repro/internal/incentives"
	"repro/internal/types"
	"repro/internal/validator"
)

// cancelCheckEvery is how many epochs a long simulation loop runs between
// cooperative cancellation checks. A LeakSim epoch costs nanoseconds and a
// BounceMC epoch is O(NHonest), so a few hundred epochs keeps the check
// overhead negligible while bounding the cancellation latency well under a
// millisecond for every paper-scale configuration.
const cancelCheckEvery = 256

// ByzMode selects the Byzantine strategy of a leak scenario.
type ByzMode int

// Byzantine strategies (paper Sections 5.1-5.2).
const (
	// ByzAbsent is Scenario 5.1: no Byzantine validators.
	ByzAbsent ByzMode = iota
	// ByzDoubleVote is Scenario 5.2.1: active on both branches every
	// epoch (slashable once observable).
	ByzDoubleVote
	// ByzSemiActive is Scenarios 5.2.2/5.2.3: active on alternating
	// branches, never slashable.
	ByzSemiActive
)

// String names the mode.
func (m ByzMode) String() string {
	switch m {
	case ByzAbsent:
		return "honest only"
	case ByzDoubleVote:
		return "double vote (slashable)"
	case ByzSemiActive:
		return "semi-active (non-slashable)"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ErrBadParams reports invalid scenario parameters.
var ErrBadParams = errors.New("core: invalid scenario parameters")

// LeakSim is the aggregate two-branch inactivity-leak simulation.
type LeakSim struct {
	// Spec holds protocol constants (paper values by default).
	Spec types.Spec
	// N is the total validator count used to size cohorts.
	N int
	// P0 is the proportion of honest validators active on branch A.
	P0 float64
	// Beta0 is the initial Byzantine stake proportion (< 1/3).
	Beta0 float64
	// Mode is the Byzantine strategy.
	Mode ByzMode
	// DelayFinalization is Scenario 5.2.3: even after the branch quorum
	// returns, the Byzantine validators refuse to stay active two
	// consecutive epochs, so nothing finalizes and the leak keeps
	// draining honest inactive validators until they are ejected — the
	// move that pushes the Byzantine proportion past 1/3.
	DelayFinalization bool
	// EndLeakAtEpoch, when nonzero, force-ends the leak on both branches
	// at the given epoch (the Byzantine validators finalize then). With
	// Spec.ResidualPenalties set, this expresses the paper's footnote 12
	// corner case: finalize just before the honest inactive validators'
	// ejection and let their accumulated scores finish the job while the
	// Byzantine validators bleed much less.
	EndLeakAtEpoch types.Epoch
}

// BranchTrace samples one branch's state at an epoch.
type BranchTrace struct {
	Epoch          types.Epoch
	ActiveRatio    float64
	ByzProportion  float64
	ActiveStake    types.Gwei
	InactiveStake  types.Gwei
	ByzStake       types.Gwei
	InactiveInSet  bool
	QuorumRegained bool
}

// BranchResult reports one branch's outcome.
type BranchResult struct {
	// ThresholdEpoch is the first epoch with a 2/3 active-stake quorum
	// (0 = never within the horizon).
	ThresholdEpoch types.Epoch
	// EjectionEpoch is when the branch ejected its inactive honest
	// validators (0 = never).
	EjectionEpoch types.Epoch
	// PeakByzProportion is the maximum Byzantine stake proportion
	// observed on the branch.
	PeakByzProportion float64
	// PeakByzEpoch is when the peak occurred.
	PeakByzEpoch types.Epoch
	// Trace holds sampled states (every SampleEvery epochs).
	Trace []BranchTrace
}

// Result reports a LeakSim run.
type Result struct {
	A, B BranchResult
	// ConflictEpoch is when conflicting finalization is complete: one
	// epoch after the slower branch regains its quorum (0 = not within
	// the horizon).
	ConflictEpoch types.Epoch
	// CrossedOneThird reports whether the Byzantine proportion exceeded
	// 1/3 on both branches (Scenario 5.2.3's outcome).
	CrossedOneThird bool
}

// Peak is the larger of the two branches' peak Byzantine proportions and
// the epoch it occurred (branch A's on a tie).
func (r Result) Peak() (float64, types.Epoch) {
	if r.B.PeakByzProportion > r.A.PeakByzProportion {
		return r.B.PeakByzProportion, r.B.PeakByzEpoch
	}
	return r.A.PeakByzProportion, r.A.PeakByzEpoch
}

// Rows of a branch's registry, one per cohort of identical validators: a
// row's stake, score and status are those of each member of its cohort,
// and the cohort's member count weighs them.
const (
	rowActive   types.ValidatorIndex = iota // honest, always active on this branch
	rowInactive                             // honest, never active on this branch
	rowByz                                  // Byzantine, activity per mode
)

// branch holds one branch's cohorts. Honest "active" validators on a branch
// are the "inactive" ones of the other branch.
type branch struct {
	reg   validator.Registry
	count [3]uint64
}

// stake is the in-set stake of the row's whole cohort.
func (b *branch) stake(row types.ValidatorIndex) types.Gwei {
	return types.Gwei(b.count[row]) * b.reg.Stake(row)
}

// inactiveInSet reports whether the honest inactive cohort is still in the
// set. An empty cohort never leaves it: its row is swept with the others
// but weighs nothing, so its ejection is no event.
func (b *branch) inactiveInSet() bool {
	return b.count[rowInactive] == 0 || b.reg.Stake(rowInactive) != 0
}

// Run simulates up to maxEpochs epochs of leak (epoch 0 = leak start) with
// samples every sampleEvery epochs (0 disables tracing).
func (l LeakSim) Run(maxEpochs int, sampleEvery int) (Result, error) {
	return l.RunContext(context.Background(), maxEpochs, sampleEvery)
}

// RunContext is Run with cooperative cancellation: the epoch loop checks
// ctx every cancelCheckEvery epochs and returns ctx.Err() once cancelled.
func (l LeakSim) RunContext(ctx context.Context, maxEpochs int, sampleEvery int) (Result, error) {
	if l.N <= 0 || l.P0 < 0 || l.P0 > 1 || l.Beta0 < 0 || l.Beta0 >= 1 {
		return Result{}, fmt.Errorf("%w: %+v", ErrBadParams, l)
	}
	if l.Mode == ByzAbsent && l.Beta0 != 0 {
		return Result{}, fmt.Errorf("%w: honest-only scenario with beta0=%v", ErrBadParams, l.Beta0)
	}
	spec := l.Spec
	if spec.SlotsPerEpoch == 0 {
		spec = types.DefaultSpec()
	}

	nByz := uint64(math.Round(float64(l.N) * l.Beta0))
	nHonest := uint64(l.N) - nByz
	nA := uint64(math.Round(float64(nHonest) * l.P0))
	nB := nHonest - nA

	eng := incentives.Engine{Spec: spec}
	branches := [2]branch{{count: [3]uint64{nA, nB, nByz}}, {count: [3]uint64{nB, nA, nByz}}}
	for i := range branches {
		branches[i].reg.Reset(3, spec.MaxEffectiveBalance)
	}

	var res Result
	results := [2]*BranchResult{&res.A, &res.B}
	crossed := [2]bool{}

	for epoch := types.Epoch(1); epoch <= types.Epoch(maxEpochs); epoch++ {
		if uint64(epoch)%cancelCheckEvery == 1 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		for i := range branches {
			br := &branches[i]
			out := results[i]

			// Byzantine activity on this branch this epoch.
			byzActive := false
			switch l.Mode {
			case ByzDoubleVote:
				byzActive = true
			case ByzSemiActive:
				byzActive = uint64(epoch)%2 == uint64(i)
			}

			// The leak on a branch lasts until it regains a quorum
			// AND someone finalizes; under DelayFinalization the
			// Byzantine validators withhold finalization until the
			// honest inactive validators are ejected; under
			// EndLeakAtEpoch they finalize at a chosen moment.
			inLeak := out.ThresholdEpoch == 0 ||
				(l.DelayFinalization && br.inactiveInSet())
			if l.EndLeakAtEpoch != 0 && epoch >= l.EndLeakAtEpoch {
				inLeak = false
			}

			active := [3]bool{rowActive: true, rowByz: byzActive}
			eng.ProcessColumn(&br.reg, active[:], inLeak, epoch)
			inactiveInSet := br.inactiveInSet()
			if !inactiveInSet && out.EjectionEpoch == 0 {
				out.EjectionEpoch = epoch
			}

			byz := br.stake(rowByz)
			act := br.stake(rowActive) + byz
			tot := act + br.stake(rowInactive)
			ratio := 0.0
			if tot > 0 {
				ratio = float64(act) / float64(tot)
			}
			byzProp := 0.0
			if tot > 0 {
				byzProp = float64(byz) / float64(tot)
			}
			if byzProp > out.PeakByzProportion {
				out.PeakByzProportion = byzProp
				out.PeakByzEpoch = epoch
			}
			if byzProp > 1.0/3.0 {
				crossed[i] = true
			}
			if out.ThresholdEpoch == 0 && ffg.Supermajority(act, tot) {
				out.ThresholdEpoch = epoch
			}
			if sampleEvery > 0 && uint64(epoch)%uint64(sampleEvery) == 0 {
				out.Trace = append(out.Trace, BranchTrace{
					Epoch:          epoch,
					ActiveRatio:    ratio,
					ByzProportion:  byzProp,
					ActiveStake:    br.stake(rowActive),
					InactiveStake:  br.stake(rowInactive),
					ByzStake:       byz,
					InactiveInSet:  inactiveInSet,
					QuorumRegained: out.ThresholdEpoch != 0,
				})
			}
		}
		if res.A.ThresholdEpoch != 0 && res.B.ThresholdEpoch != 0 && res.ConflictEpoch == 0 {
			slower := res.A.ThresholdEpoch
			if res.B.ThresholdEpoch > slower {
				slower = res.B.ThresholdEpoch
			}
			res.ConflictEpoch = slower + 1
		}
	}
	res.CrossedOneThird = crossed[0] && crossed[1]
	return res, nil
}
