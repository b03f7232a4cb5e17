// Package behavior implements the adversary strategies of the paper's five
// scenarios as sim.Adversary values:
//
//   - DoubleVoter (Scenario 5.2.1): Byzantine validators attest on both
//     branches of a partition every epoch — a slashable offense that stays
//     hidden until GST because each partition only sees one face;
//   - SemiActive (Scenarios 5.2.2 / 5.2.3): Byzantine validators alternate
//     branches every epoch — non-slashable — optionally staying two
//     consecutive epochs per branch when they decide to finalize;
//   - Bouncer (Scenario 5.3): after GST, Byzantine validators withhold
//     their checkpoint votes and release them at epoch boundaries to
//     alternately justify the two branches of a fork, bouncing honest
//     validators between them and stalling finality indefinitely.
//
// The adversaries are cohort-aware: identical votes from many Byzantine
// validators travel as one sim.AttBatch, and the Bouncer's per-validator
// placement step uses sim.SetDutyView instead of touching per-validator
// nodes, so every strategy runs at paper-scale validator counts.
//
// Every adversary resumes one way. SemiActive and Bouncer walk their state
// (codec.go), so sim.Snapshot carries it and a restore decodes it into the
// restoring simulation's own adversary, whose configuration (Reps, P0,
// seed, Stop, AutoFinalize) is that simulation's; neither keeps a pointer
// into the simulation between slots. DoubleVoter has no state.
package behavior

import (
	"math/rand"

	"repro/internal/attestation"
	"repro/internal/blocktree"
	"repro/internal/sim"
	"repro/internal/types"
)

// dutyByzantine returns the Byzantine validators whose attestation duty
// falls on slot, in Config order.
func dutyByzantine(s *sim.Simulation, slot types.Slot) []types.ValidatorIndex {
	epoch := slot.Epoch()
	var out []types.ValidatorIndex
	for _, v := range s.Cfg.Byzantine {
		if s.AttestationSlot(v, epoch) == slot {
			out = append(out, v)
		}
	}
	return out
}

// DoubleVoter is the Scenario 5.2.1 adversary. Each Byzantine validator
// attests once per epoch on each branch, showing each partition only the
// matching face (BroadcastAs), so the equivocation is undetectable before
// GST. The identical votes of a slot travel as one batch per branch.
type DoubleVoter struct {
	// Reps holds one honest representative validator per partition; the
	// adversary copies their cohorts' views.
	Reps [2]types.ValidatorIndex
}

// OnSlot implements sim.Adversary.
func (d *DoubleVoter) OnSlot(s *sim.Simulation, slot types.Slot) {
	members := dutyByzantine(s, slot)
	if len(members) == 0 {
		return
	}
	for p := 0; p < 2; p++ {
		data, err := s.View(d.Reps[p]).AttestationData(slot)
		if err != nil {
			continue
		}
		s.BroadcastAs(members[0], p, slot, sim.Message{Kind: sim.BatchMessage, Batch: sim.AttBatch{Data: data, Validators: members}})
	}
}

// SemiActive is the Scenario 5.2.2 / 5.2.3 adversary: Byzantine validators
// are active on branch (epoch mod 2) each epoch — never equivocating within
// an epoch, hence non-slashable. To finalize, the adversary switches to the
// finalization gait: it camps on branch 0 until that view finalizes a
// post-fork checkpoint (two consecutive justifications), then camps on
// branch 1 until it finalizes too — conflicting finalization — and resumes
// alternation. Camping (rather than staying a fixed two epochs) makes the
// gait robust at the exact quorum boundary, where a marginal link can miss
// the supermajority by a hair and only clear it an epoch or two later as
// the leak keeps draining the denominators.
//
// With AutoFinalize the adversary starts the gait itself, as soon as
// alternation has justified recent checkpoints on both branches — the
// earliest epoch at which conflicting finalization is in reach, the
// Scenario 5.2.2 / Table 3 timing. Without it, it alternates forever (the
// Scenario 5.2.3 "delay finalization to cross 1/3" mode).
type SemiActive struct {
	// Reps holds one honest representative validator per branch; the
	// adversary reads their cohorts' views.
	//gasper:nocodec configuration: the restored simulation's own adversary holds it
	Reps [2]types.ValidatorIndex
	// AutoFinalize lets the adversary trigger its own finalization gait
	// (see above).
	//gasper:nocodec configuration: the restored simulation's own adversary holds it
	AutoFinalize bool

	// gaitFrom is the epoch the gait actually started; gaitPhase tracks
	// its progress (0 = alternating, 1 = camping on branch 0, 2 = camping
	// on branch 1, 3 = done, back to alternating).
	gaitFrom  types.Epoch
	gaitPhase int
}

// GaitFrom reports the epoch at which the adversary began its finalization
// gait; zero means not (yet) started.
func (a *SemiActive) GaitFrom() types.Epoch { return a.gaitFrom }

// branchFor returns which branch the Byzantine validators act on during an
// epoch.
func (a *SemiActive) branchFor(epoch types.Epoch) int {
	if a.gaitPhase == 1 || a.gaitPhase == 2 { // camping on branch 0, then 1
		return a.gaitPhase - 1
	}
	return int(epoch % 2)
}

// advanceGait runs the finalization state machine at an epoch boundary
// (after the views processed theirs, so justification/finalization state
// is current for the ended epoch).
func (a *SemiActive) advanceGait(s *sim.Simulation, epoch types.Epoch) {
	// A camped branch counts as finalized only for checkpoints the gait
	// itself produced: epoch >= gaitFrom, minus one for a justification
	// that landed late (a target justifying an epoch after the votes were
	// cast, completing a consecutive pair one epoch behind the camp). A
	// stale pre-gait finalization must NOT satisfy the camp, or the gait
	// would declare victory without finalizing anything post-fork.
	finalized := func(branch int) bool {
		fin := s.View(a.Reps[branch]).FFG.Finalized()
		return fin.Epoch != 0 && a.gaitFrom != 0 && fin.Epoch+1 >= a.gaitFrom
	}
	switch a.gaitPhase {
	case 0: // alternating; with AutoFinalize, start once both branches justified recently
		start := a.AutoFinalize && epoch >= 2
		for i := 0; start && i < 2; i++ {
			just := s.View(a.Reps[i]).FFG.LatestJustified()
			if just.Epoch+2 < epoch || just.Epoch == 0 {
				start = false
			}
		}
		if start {
			a.gaitFrom = epoch
			a.gaitPhase = 1
		}
	case 1, 2: // camping on branch 0, then 1, until it finalizes
		if finalized(a.gaitPhase - 1) {
			a.gaitPhase++
		}
	}
}

// OnSlot implements sim.Adversary.
func (a *SemiActive) OnSlot(s *sim.Simulation, slot types.Slot) {
	if slot.IsEpochStart() {
		a.advanceGait(s, slot.Epoch())
	}
	members := dutyByzantine(s, slot)
	if len(members) == 0 {
		return
	}
	branch := a.branchFor(slot.Epoch())
	data, err := s.View(a.Reps[branch]).AttestationData(slot)
	if err != nil {
		return
	}
	s.BroadcastAs(members[0], branch, slot, sim.Message{Kind: sim.BatchMessage, Batch: sim.AttBatch{Data: data, Validators: members}})
}

// Bouncer is the Scenario 5.3 adversary (probabilistic bouncing attack with
// the inactivity leak). It assumes a fork was established during a pre-GST
// partition — the paper's "favorable setup", step (1) of the attack, which
// the paper takes from its citation of the original bouncing-attack
// analysis rather than re-deriving.
//
// After GST the adversary alternates branches. At the boundary of each
// epoch it releases its withheld Byzantine checkpoint votes completing the
// previous epoch's two-epoch justification link on one branch (one batch),
// and uses its within-delta message-timing power to decide, per honest
// validator, whether the release lands before or after that validator's
// attestation duty. With shared cohort views the placement is exactly a
// duty-view assignment: the fresh branch's view is force-justified to the
// released target, and each honest validator performs this epoch's duty
// from the fresh view with probability 1-P0 (bouncing there) or from the
// stale view with probability P0 (staying, becoming part of the coherent
// link the adversary completes next boundary) — the i.i.d. placement of
// the paper's Figure 8 Markov chain. Justification alternates branches,
// links are never between consecutive epochs, and finality never advances;
// after two warm-up epochs the released links genuinely carry more than
// two-thirds of stake (Equation 14(b)) and justify through the regular FFG
// rule as well.
type Bouncer struct {
	// P0 is the per-epoch probability that an honest validator stays on
	// the branch whose justification the adversary completes next — the
	// paper's p0, constrained by Equation 14.
	//gasper:nocodec configuration: the restored simulation's own adversary holds it
	P0 float64
	// Stop, when nonzero, is the epoch at which the adversary ceases the
	// attack (used to demonstrate liveness recovery).
	//gasper:nocodec configuration: the restored simulation's own adversary holds it
	Stop types.Epoch
	// seed seeds the per-validator placement coin, and setupReps are the
	// partition representatives whose home views are the two branches'.
	//gasper:nocodec configuration: the restored simulation's own adversary holds it
	seed int64
	//gasper:nocodec configuration: the restored simulation's own adversary holds it
	setupReps [2]types.ValidatorIndex
	// rng draws the placement coin. It is built on the first draw, from
	// seed, with the draws already taken discarded, so a decoded Bouncer
	// draws exactly what the Bouncer it was taken from would have.
	//gasper:nocodec rebuilt from seed and draws on the next draw
	rng   *rand.Rand
	draws uint64

	// anchors[i] is the first post-fork block root of branch i.
	anchors [2]types.Root
	// lastJust[i] tracks the latest checkpoint the adversary justified
	// on branch i.
	lastJust [2]types.Checkpoint
	// prevTarget is the previous release's checkpoint: released votes
	// reach every validator within delta, so by the next boundary every
	// view has justified it (the catch-up step that keeps honest sources
	// two-valued and the completed links above the quorum).
	prevTarget types.Checkpoint
	armed      bool

	// Bounces counts bounce placements per honest validator (metrics).
	Bounces int
	// Releases counts boundary releases performed.
	Releases int
}

// NewBouncer builds a Bouncer with partition representatives (one honest
// validator per partition, used to locate the fork's branches at GST).
func NewBouncer(p0 float64, seed int64, reps [2]types.ValidatorIndex) *Bouncer {
	return &Bouncer{P0: p0, seed: seed, setupReps: reps}
}

// arm captures the fork anchors at GST, and reports whether the branches
// have forked (it is tried again each slot until they have).
func (b *Bouncer) arm(s *sim.Simulation) bool {
	for i := 0; i < 2; i++ {
		rep := s.HomeView(b.setupReps[i])
		head, err := rep.Head()
		if err != nil {
			return false
		}
		b.anchors[i] = head
		b.lastJust[i] = rep.FFG.LatestJustified()
	}
	b.armed = b.anchors[0] != b.anchors[1]
	return b.armed
}

// branchTip finds the highest block descending from the branch anchor in
// the omniscient Byzantine view's tree.
func (b *Bouncer) branchTip(tree *blocktree.Tree, branch int) (types.Root, bool) {
	anchor := b.anchors[branch]
	if !tree.Has(anchor) {
		return types.Root{}, false
	}
	best := anchor
	bestSlot, _ := tree.Slot(anchor)
	for _, leaf := range tree.Leaves() {
		if leaf.Slot > bestSlot && tree.IsAncestor(anchor, leaf.Root) {
			best, bestSlot = leaf.Root, leaf.Slot
		}
	}
	return best, true
}

// OnSlot implements sim.Adversary. The views it acts on — each branch
// representative's home view and the Byzantine cohort's omniscient one —
// are read off the simulation on every use, never kept.
func (b *Bouncer) OnSlot(s *sim.Simulation, slot types.Slot) {
	if slot < s.Cfg.GST {
		return
	}
	if !b.armed && !b.arm(s) {
		return
	}
	epoch := slot.Epoch()
	if !slot.IsEpochStart() || epoch == 0 || b.Stop != 0 && epoch >= b.Stop {
		return
	}
	ended := epoch - 1
	branch := int(ended % 2)

	observer := s.HomeView(s.Cfg.Byzantine[0])
	tip, ok := b.branchTip(observer.Tree, branch)
	if !ok {
		return
	}
	target, err := observer.Tree.CheckpointFor(tip, ended)
	if err != nil || target.Root == b.lastJust[branch].Root {
		return
	}
	b.Releases++

	// Release the withheld Byzantine votes completing the two-epoch link
	// (the branch's last justified checkpoint -> target) on this branch, as
	// one batch. One vote per Byzantine validator per epoch: semi-active per
	// branch, never slashable.
	vote := attestation.Data{Slot: ended.EndSlot(), Head: tip, Source: b.lastJust[branch], Target: target}
	s.Broadcast(s.Cfg.Byzantine[0], slot, sim.Message{Kind: sim.BatchMessage, Batch: sim.AttBatch{Data: vote, Validators: s.Cfg.Byzantine}})

	// Catch-up: the previous release reached every validator within
	// delta, so by this boundary every view has processed it.
	if !b.prevTarget.IsZero() {
		s.HomeView(b.setupReps[0]).FFG.ForceJustify(b.prevTarget)
		s.HomeView(b.setupReps[1]).FFG.ForceJustify(b.prevTarget)
	}
	fresh, stale := b.setupReps[branch], b.setupReps[1-branch]
	// The fresh branch's view sees the release (and the resulting
	// justification) immediately; the stale view stays on the previous
	// target until next boundary.
	s.HomeView(fresh).FFG.ForceJustify(target)
	// Per-validator timing: with probability 1-P0 the validator's duty
	// this epoch runs on the fresh view (it bounces to this branch); with
	// probability P0 it acts on the stale view and stays put.
	if b.rng == nil { // new or decoded: seed, and replay the draws already taken
		b.rng = rand.New(rand.NewSource(b.seed))
		for range b.draws {
			b.rng.Float64()
		}
	}
	for _, h := range s.HonestIndices() {
		if b.draws++; b.rng.Float64() >= b.P0 {
			s.SetDutyView(h, fresh)
			b.Bounces++
		} else {
			s.SetDutyView(h, stale)
		}
	}
	// The omniscient Byzantine view tracks every justification.
	observer.FFG.ForceJustify(target)
	b.lastJust[branch] = target
	b.prevTarget = target
}
