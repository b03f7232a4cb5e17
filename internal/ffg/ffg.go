// Package ffg implements the Casper-FFG finality gadget as the paper uses
// it (Section 3.2): a checkpoint is *justified* when validators controlling
// more than two-thirds of the stake cast the same checkpoint vote from an
// already-justified source, and a checkpoint is *finalized* when two
// consecutive checkpoints (epochs e and e+1) are justified by a
// supermajority link between them.
//
// One Engine instance tracks the FFG state of one view (one branch, one
// observer). Views diverge during partitions; each side justifies and
// finalizes on its own — exactly the mechanism behind the paper's
// conflicting-finalization scenarios.
package ffg

import (
	"errors"
	"fmt"

	"repro/internal/attestation"
	"repro/internal/types"
)

// ErrConflictingFinality is returned by CheckConflict when two engines have
// finalized checkpoints on incompatible branches.
var ErrConflictingFinality = errors.New("ffg: conflicting finalized checkpoints")

// Engine is the per-view finality state machine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	// justified lists the justified checkpoints in justification order.
	// The set is columnar rather than a map: during a leak it stays a
	// handful of entries (nothing justifies — that is what a leak is) and
	// during healthy stretches finalization prunes it, so membership is a
	// short backward scan over recent entries and Clone is one flat copy
	// instead of a map rehash — the properties the long-horizon epoch
	// transition needs.
	justified []types.Checkpoint
	// latestJustified is the justified checkpoint with the greatest
	// epoch; it seeds honest validators' source votes and the
	// fork-choice starting point.
	latestJustified types.Checkpoint
	// finalized is the finalized checkpoint with the greatest epoch.
	finalized types.Checkpoint
	// lastFinalizedAt is the epoch at which finalization last advanced
	// (for leak-trigger bookkeeping).
	lastFinalizedAt types.Epoch
	genesis         types.Checkpoint
}

// NewEngine starts a view with the genesis checkpoint justified and
// finalized, as the beacon spec does.
func NewEngine(genesis types.Root) *Engine {
	g := types.Checkpoint{Epoch: 0, Root: genesis}
	return &Engine{
		justified:       []types.Checkpoint{g},
		latestJustified: g,
		finalized:       g,
		genesis:         g,
	}
}

// Clone deep-copies the engine, so partitioned views can evolve apart.
func (e *Engine) Clone() *Engine {
	out := &Engine{
		justified:       append([]types.Checkpoint(nil), e.justified...),
		latestJustified: e.latestJustified,
		finalized:       e.finalized,
		lastFinalizedAt: e.lastFinalizedAt,
		genesis:         e.genesis,
	}
	return out
}

// Justified reports whether checkpoint c is justified in this view.
// Recent checkpoints sit at the end of the column, so the backward scan
// answers the boundary re-scan's queries in a handful of compares.
func (e *Engine) Justified(c types.Checkpoint) bool {
	for i := len(e.justified) - 1; i >= 0; i-- {
		if e.justified[i] == c {
			return true
		}
	}
	return false
}

// markJustified records a justified checkpoint (caller guarantees it is
// not yet present) and maintains latestJustified.
func (e *Engine) markJustified(c types.Checkpoint) {
	e.justified = append(e.justified, c)
	if c.Epoch > e.latestJustified.Epoch {
		e.latestJustified = c
	}
}

// pruneJustified drops justified checkpoints older than the finalized
// epoch. Supermajority links always originate from a justified source at
// or after the finalized checkpoint, so the dropped entries can never be
// consulted again; pruning is what keeps the column a handful of entries
// over thousands of healthy epochs.
func (e *Engine) pruneJustified() {
	kept := e.justified[:0]
	for _, c := range e.justified {
		if c.Epoch >= e.finalized.Epoch {
			kept = append(kept, c)
		}
	}
	e.justified = kept
}

// LatestJustified returns the highest-epoch justified checkpoint.
func (e *Engine) LatestJustified() types.Checkpoint { return e.latestJustified }

// Justifieds returns the retained justified checkpoints in justification
// order. The returned slice is the engine's own backing store — callers
// must treat it as read-only (it exists so block-tree compaction can pin
// every checkpoint root without copying).
func (e *Engine) Justifieds() []types.Checkpoint { return e.justified }

// Finalized returns the highest-epoch finalized checkpoint.
func (e *Engine) Finalized() types.Checkpoint { return e.finalized }

// Result reports what a ProcessTally call changed.
type Result struct {
	NewlyJustified []types.Checkpoint
	NewlyFinalized []types.Checkpoint
}

// ProcessTally ingests a columnar per-link tally for target epoch `epoch`
// (as produced by attestation.Pool.AppendLinkTally), the total in-set
// stake of this view, and the current epoch number `now` (used to
// timestamp finalization advances). It applies the two FFG rules:
//
//  1. justify target if its source is justified and the link weight
//     exceeds 2/3 of total stake;
//  2. finalize source if source and target are consecutive epochs and the
//     justifying link connects them.
//
// A boundary call that advances nothing — the steady state of a leak —
// performs no allocation.
//
//gasper:noalloc
func (e *Engine) ProcessTally(epoch types.Epoch, tally []attestation.LinkWeight, total types.Gwei, now types.Epoch) Result {
	var res Result
	if total == 0 {
		return res
	}
	for _, lw := range tally {
		link := lw.Link
		if link.Target.Epoch != epoch {
			continue
		}
		if !e.Justified(link.Source) {
			continue
		}
		if !Supermajority(lw.Weight, total) {
			continue
		}
		if !e.Justified(link.Target) {
			e.markJustified(link.Target)
			res.NewlyJustified = append(res.NewlyJustified, link.Target) //gasper:alloc justification advance only; the steady-state leak boundary never reaches this
		}
		// Finalization: consecutive justified checkpoints joined by a
		// supermajority link finalize the source.
		if link.Target.Epoch == link.Source.Epoch+1 {
			if link.Source.Epoch > e.finalized.Epoch || (e.finalized == e.genesis && link.Source == e.genesis) {
				e.finalized = link.Source
				e.lastFinalizedAt = now
				res.NewlyFinalized = append(res.NewlyFinalized, link.Source) //gasper:alloc finalization advance only; the steady-state leak boundary never reaches this
				e.pruneJustified()
			}
		}
	}
	return res
}

// ForceJustify marks a checkpoint justified in this view without a
// supermajority-link check. It models the message-timing capability the
// probabilistic bouncing attack assumes (paper Section 5.3, citing the
// attack's original description): the adversary releases withheld votes to
// a validator at exactly the moment that makes the target checkpoint
// justified in that validator's view before its attestation duty. The
// actual votes still flow through the pool, so after the warm-up epochs the
// same checkpoints justify through ProcessTally as well; ForceJustify only
// pins the per-validator timing that a slot-granular simulator cannot
// express. It must not be used outside bouncing scenarios.
func (e *Engine) ForceJustify(c types.Checkpoint) {
	if e.Justified(c) {
		return
	}
	e.markJustified(c)
}

// EpochsSinceFinality returns how many epochs have elapsed at `now` since
// finalization last advanced; the inactivity leak starts when this exceeds
// the spec's MinEpochsToInactivityLeak.
func (e *Engine) EpochsSinceFinality(now types.Epoch) uint64 {
	if now <= e.lastFinalizedAt {
		return 0
	}
	return uint64(now - e.lastFinalizedAt)
}

// InLeak reports whether the view is in an inactivity leak at epoch now
// under spec.
func (e *Engine) InLeak(now types.Epoch, spec types.Spec) bool {
	return e.EpochsSinceFinality(now) > spec.MinEpochsToInactivityLeak
}

// Supermajority reports whether w is strictly greater than 2/3 of total,
// using overflow-safe integer arithmetic.
func Supermajority(w, total types.Gwei) bool {
	// w > 2/3 total  <=>  3w > 2total. Gwei totals in the simulator stay
	// far below 2^63, so the products cannot overflow uint64.
	return 3*uint64(w) > 2*uint64(total)
}

// CheckConflict inspects two views and returns ErrConflictingFinality if
// their finalized checkpoints are on provably different branches, i.e.
// neither finalized checkpoint is an ancestor-or-equal of the other
// according to isAncestor. This is the paper's Safety violation (1).
func CheckConflict(a, b types.Checkpoint, isAncestor func(anc, dec types.Root) bool) error {
	if a.Root == b.Root {
		return nil
	}
	if isAncestor(a.Root, b.Root) || isAncestor(b.Root, a.Root) {
		return nil
	}
	return fmt.Errorf("%w: %s vs %s", ErrConflictingFinality, a, b)
}
