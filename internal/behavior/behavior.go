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
package behavior

import (
	"math/rand"

	"repro/internal/attestation"
	"repro/internal/beacon"
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
// The gait starts at StayFrom when set; with AutoFinalize the adversary
// picks the moment itself, as soon as alternation has justified recent
// checkpoints on both branches — the earliest epoch at which conflicting
// finalization is in reach, the Scenario 5.2.2 / Table 3 timing. With
// neither, it alternates forever (the Scenario 5.2.3 "delay finalization
// to cross 1/3" mode).
type SemiActive struct {
	Reps [2]types.ValidatorIndex
	// StayFrom, when nonzero, is the epoch at which the adversary stops
	// delaying and finalizes both branches. Zero means never, unless
	// AutoFinalize picks a moment.
	StayFrom types.Epoch
	// AutoFinalize lets the adversary trigger its own finalization gait
	// (see above). StayFrom, when also set, acts as a floor.
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

// Clone returns an independent copy of the adversary, gait state machine
// included. sim.Snapshot deliberately leaves adversary state outside the
// snapshot, so a warm-start prefix pairs each snapshot with a Clone taken
// at the same epoch boundary: every continuation resumes from its own
// copy of the gait exactly where the prefix left it.
func (a *SemiActive) Clone() *SemiActive {
	cp := *a
	return &cp
}

// branchFor returns which branch the Byzantine validators act on during an
// epoch.
func (a *SemiActive) branchFor(epoch types.Epoch) int {
	switch a.gaitPhase {
	case 1:
		return 0
	case 2:
		return 1
	default:
		return int(epoch % 2)
	}
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
	case 0: // alternating; decide whether to start the gait
		var start bool
		if a.AutoFinalize {
			// AutoFinalize owns the trigger: both branches must have
			// justified recently, and StayFrom — when also set — is
			// only a floor below which the trigger is not consulted.
			start = epoch >= 2 && (a.StayFrom == 0 || epoch >= a.StayFrom)
			for i := 0; start && i < 2; i++ {
				just := s.View(a.Reps[i]).FFG.LatestJustified()
				if just.Epoch+2 < epoch || just.Epoch == 0 {
					start = false
				}
			}
		} else {
			// Manual mode: the caller picked the moment outright.
			start = a.StayFrom != 0 && epoch >= a.StayFrom
		}
		if start {
			a.gaitFrom = epoch
			a.gaitPhase = 1
		}
	case 1: // camping on branch 0 until it finalizes
		if finalized(0) {
			a.gaitPhase = 2
		}
	case 2: // camping on branch 1 until it finalizes too
		if finalized(1) {
			a.gaitPhase = 3
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
	P0 float64
	// Rng drives the per-validator placement coin.
	Rng *rand.Rand
	// Stop, when nonzero, is the epoch at which the adversary ceases the
	// attack (used to demonstrate liveness recovery).
	Stop types.Epoch

	// views[i] is the materialized view of branch i, captured at GST
	// from the partition representatives (stable across duty-view
	// reassignments).
	views [2]*beacon.Node
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
	observer   *beacon.Node // the Byzantine cohort's omniscient view
	setupReps  [2]types.ValidatorIndex

	// Bounces counts bounce placements per honest validator (metrics).
	Bounces int
	// Releases counts boundary releases performed.
	Releases int
}

// NewBouncer builds a Bouncer with partition representatives (one honest
// validator per partition, used to locate the fork's branches at GST).
func NewBouncer(p0 float64, seed int64, reps [2]types.ValidatorIndex) *Bouncer {
	return &Bouncer{
		P0:        p0,
		Rng:       rand.New(rand.NewSource(seed)),
		setupReps: reps,
	}
}

// arm captures the fork anchors at GST.
func (b *Bouncer) arm(s *sim.Simulation) {
	b.observer = s.View(s.Cfg.Byzantine[0])
	for i := 0; i < 2; i++ {
		rep := s.View(b.setupReps[i])
		head, err := rep.Head()
		if err != nil {
			return
		}
		b.views[i] = rep
		b.anchors[i] = head
		b.lastJust[i] = rep.FFG.LatestJustified()
	}
	if b.anchors[0] == b.anchors[1] {
		return // no fork yet
	}
	b.armed = true
}

// branchTip finds the highest block descending from the branch anchor in
// the omniscient Byzantine view.
func (b *Bouncer) branchTip(branch int) (types.Root, bool) {
	tree := b.observer.Tree
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

// OnSlot implements sim.Adversary.
func (b *Bouncer) OnSlot(s *sim.Simulation, slot types.Slot) {
	if slot < s.Cfg.GST {
		return
	}
	if !b.armed {
		b.arm(s)
		if !b.armed {
			return
		}
	}
	if !slot.IsEpochStart() || slot.Epoch() == 0 {
		return
	}
	epoch := slot.Epoch()
	if b.Stop != 0 && epoch >= b.Stop {
		return
	}
	ended := epoch - 1
	branch := int(ended % 2)

	tip, ok := b.branchTip(branch)
	if !ok {
		return
	}
	target, err := b.observer.Tree.CheckpointFor(tip, ended)
	if err != nil || target.Root == b.lastJust[branch].Root {
		return
	}
	source := b.lastJust[branch]
	b.Releases++

	// Release the withheld Byzantine votes completing the two-epoch link
	// (source -> target) on this branch, as one batch. One vote per
	// Byzantine validator per epoch: semi-active per branch, never
	// slashable.
	release := sim.AttBatch{
		Data: attestation.Data{
			Slot:   ended.EndSlot(),
			Head:   tip,
			Source: source,
			Target: target,
		},
		Validators: s.Cfg.Byzantine,
	}
	s.Broadcast(s.Cfg.Byzantine[0], slot, sim.Message{Kind: sim.BatchMessage, Batch: release})

	// Catch-up: the previous release reached every validator within
	// delta, so by this boundary every view has processed it.
	if !b.prevTarget.IsZero() {
		b.views[0].FFG.ForceJustify(b.prevTarget)
		b.views[1].FFG.ForceJustify(b.prevTarget)
	}
	// The fresh branch's view sees the release (and the resulting
	// justification) immediately; the stale view stays on the previous
	// target until next boundary.
	b.views[branch].FFG.ForceJustify(target)
	// Per-validator timing: with probability 1-P0 the validator's duty
	// this epoch runs on the fresh view (it bounces to this branch); with
	// probability P0 it acts on the stale view and stays put.
	fresh, stale := b.setupReps[branch], b.setupReps[1-branch]
	for _, h := range s.HonestIndices() {
		if b.Rng.Float64() >= b.P0 {
			s.SetDutyView(h, fresh)
			b.Bounces++
		} else {
			s.SetDutyView(h, stale)
		}
	}
	// The omniscient Byzantine view tracks every justification.
	b.observer.FFG.ForceJustify(target)
	b.lastJust[branch] = target
	b.prevTarget = target
}
