package engine

import (
	"context"

	"repro/internal/sim"
)

// Prefix is one checkpoint on a shared simulation prefix: the deep-copied
// protocol state at an epoch boundary plus whatever the scenario observed
// on the way there. Prefixes chain — RunTo extends one checkpoint to a
// deeper epoch without re-simulating the epochs before it — and fan out:
// any number of ResumeFrom continuations may consume the same Prefix,
// because sim.Restore clones the snapshot rather than consuming it.
//
// A Prefix is immutable once returned by RunTo. Scenario implementations
// must deep-copy the Trace when extending or resuming (a shared backing
// slice appended from two continuations is a correctness bug, not just a
// race).
type Prefix struct {
	// Snap is the simulation state at the checkpoint. Every prefix RunTo
	// or DecodePrefix returns has one. Inside the engine a prefix may be
	// advanced without it (nil): it then stands on its live simulation
	// alone, is private to the goroutine that advanced it, and is frozen —
	// given its Snap — before anyone else may see it.
	Snap *sim.Snapshot
	// Epoch counts the simulated epochs in the prefix (the checkpoint sits
	// at the boundary ending epoch Epoch). It can fall short of the epoch
	// RunTo was asked for when the scenario concluded early (Done).
	Epoch int
	// Trace carries the scenario's accumulated per-epoch observations
	// (violation epochs, stake curves, adversary state) — everything a
	// cold run would have gathered over the prefix epochs, so a resumed
	// cell's Result is bit-identical to the cold run's.
	Trace any
	// Done marks a prefix on which the scenario already concluded (e.g. a
	// safety violation before the branch point). Extending a Done prefix
	// returns it unchanged; resuming from it skips further simulation.
	Done bool
	// Owned marks a prefix handed to its final consumer: the scheduler
	// guarantees (via refcounts) that nothing else — no sibling resume, no
	// pending spine hop, no rebuild — can reference this checkpoint again,
	// so ResumeFrom may destructively adopt Snap (sim.Simulation.Adopt)
	// instead of deep-copying it. Adoption yields state identical to a
	// Restore, so ownership can never change results, only skip a clone.
	Owned bool
	// cont optionally carries scenario-private continuation state — for
	// the sim scenarios, the spine's still-live simulation positioned at
	// this checkpoint — which exactly one later RunTo or ResumeFrom may
	// claim instead of restoring the snapshot. Claiming is atomic; losers
	// fall back to Snap. Struct-copying a Prefix shares the claim.
	cont any
}

// ForkableScenario is the optional Scenario extension that opts a
// simulation scenario into snapshot-tree warm-started sweeps: the
// scheduler (sched.go) groups a grid's cells by prefix key, simulates each
// shared prefix once via RunTo, and finishes every cell from its checkpoint
// via ResumeFrom (through the cell executor's in-memory tier). A cell whose
// branch epoch is its own horizon has nothing left to simulate: ResumeFrom
// on a prefix standing at (or concluded before) the cell's horizon only
// reads it.
//
// The contract every implementation must honor, and the warm-vs-cold
// equivalence suite pins: for any fully-defaulted params p with
// Fork(p) = (key, branch, true),
//
//	RunContext(ctx, p)  ==  ResumeFrom(ctx, RunTo(ctx, p, nil, branch), p)
//
// bit-identically (Result.Meta aside), and RunTo may be split at any
// intermediate epoch — RunTo(p, RunTo(p, nil, e1), e2) equals
// RunTo(p, nil, e2) — so the scheduler is free to checkpoint wherever the
// grid's branch epochs fall, rebuild evicted snapshots from any surviving
// ancestor, and run cells in any order on any number of workers.
type ForkableScenario interface {
	Scenario
	// Fork reports the cell's prefix key — a canonical encoding of every
	// parameter dimension that shapes the epochs BEFORE the branch point —
	// and its branch epoch. Two cells with equal keys are guaranteed to
	// simulate identical state through min(branch) epochs. ok = false
	// means the cell cannot warm-start (invalid params surface through the
	// cold path, degenerate branch at epoch 0); the scheduler then starts
	// it outside the tree.
	Fork(p Params) (key string, branch int, ok bool)
	// RunTo extends a prefix (nil = from genesis) to the target epoch and
	// returns the new checkpoint. Implementations must derive everything
	// from the PRE-branch dimensions of p only (the ones Fork keys on):
	// the scheduler calls RunTo with one representative cell's params on
	// behalf of every cell in the group.
	RunTo(ctx context.Context, p Params, from *Prefix, epoch int) (*Prefix, error)
	// ResumeFrom completes one cell from the checkpoint: restore, simulate
	// the remaining epochs under the cell's own post-branch parameters,
	// assemble the Result exactly as a cold run would have. Scenario and
	// Params are left for the caller to stamp (the cell executor does).
	ResumeFrom(ctx context.Context, pre *Prefix, p Params) (Result, error)
}

// DefaultWarmStartBudget bounds resident snapshot bytes when
// WarmStartOptions.MemoryBudget is zero: 2 GiB, roomy for paper-scale
// grids (a 10k-validator full-spec snapshot is a few MiB) while keeping a
// runaway grid from swallowing the machine.
const DefaultWarmStartBudget int64 = 2 << 30

// WarmStartOptions configures the sweep scheduler's snapshot tree. A
// non-nil Options.WarmStart turns it on; cells of scenarios that do not
// implement ForkableScenario start like any cell of a sweep without it.
type WarmStartOptions struct {
	// MemoryBudget bounds the bytes of snapshots resident at once
	// (sim.Snapshot.Bytes). When publishing a checkpoint would exceed it,
	// the scheduler evicts the cheapest-to-rebuild resident snapshots;
	// cells that later need an evicted checkpoint rebuild it from the
	// nearest surviving ancestor (results stay bit-identical, only the
	// wall clock pays). 0 means DefaultWarmStartBudget; negative means
	// unlimited.
	MemoryBudget int64
}

// Budget resolves the effective byte budget (<= 0 only when unlimited).
func (o WarmStartOptions) Budget() int64 {
	if o.MemoryBudget == 0 {
		return DefaultWarmStartBudget
	}
	return o.MemoryBudget
}

// WarmMeta is the warm-start provenance of one sweep cell, carried in
// RunMeta. The per-cell fields say what this cell reused; the sweep-wide
// fields snapshot the scheduler's counters as of this cell's completion
// (the last-completed cell carries the sweep's totals). Like all of
// RunMeta it is excluded from determinism comparisons.
type WarmMeta struct {
	// Hit marks a cell finished from a shared prefix — read off the spine
	// where it ends, or resumed from a snapshot where it continues (false
	// on a cell the scheduler started outside the tree).
	Hit bool `json:"hit,omitempty"`
	// BranchEpoch is the epoch the cell left its prefix at.
	BranchEpoch int `json:"branch_epoch,omitempty"`
	// EpochsSaved counts the prefix epochs this cell did not re-simulate.
	EpochsSaved int `json:"epochs_saved,omitempty"`
	// PrefixNodes is the snapshot-tree size: distinct (prefix key, branch
	// epoch) checkpoints the sweep planned.
	PrefixNodes int `json:"prefix_nodes,omitempty"`
	// SnapshotHits counts cells served from a shared prefix so far: stops
	// read off the spine and forks resumed from a resident snapshot.
	SnapshotHits int `json:"snapshot_hits,omitempty"`
	// Rebuilt counts snapshots re-simulated after eviction so far.
	Rebuilt int `json:"rebuilt,omitempty"`
	// PeakResidentBytes is the high-water mark of resident snapshot bytes
	// so far.
	PeakResidentBytes int64 `json:"peak_resident_bytes,omitempty"`
}
