package engine

import (
	"context"
	"io"

	"repro/internal/sim"
)

// Prefix is one checkpoint on a shared simulation prefix: the protocol state
// at an epoch boundary — a snapshot, or the live simulation standing there —
// plus whatever the scenario observed on the way there. Prefixes chain — RunTo extends one checkpoint to a
// deeper epoch without re-simulating the epochs before it — and fan out:
// any number of ResumeFrom continuations may consume the same Prefix,
// because sim.Restore clones the snapshot rather than consuming it.
//
// A Prefix is immutable once returned by RunTo: every extension or resume
// steps a clone of its trace (a shared backing slice appended from two
// continuations is a correctness bug, not just a race).
type Prefix struct {
	// Snap is the simulation state at the checkpoint, the adversary's
	// included (sim.Snapshot). RunTo and DecodePrefix, the entry points
	// outside callers use, fill it; every prefix the engine makes for its
	// own tiers leaves it nil and stands on its live simulation alone,
	// private to the goroutine that advanced it until it hands it on.
	Snap *sim.Snapshot
	// Epoch counts the simulated epochs in the prefix (the checkpoint sits
	// at the boundary ending epoch Epoch). It can fall short of the epoch
	// RunTo was asked for when the scenario concluded early (Done).
	Epoch int
	// Done marks a prefix on which the scenario already concluded (e.g. a
	// safety violation before the branch point). Extending a Done prefix
	// returns it unchanged; resuming from it skips further simulation.
	Done bool
	// trace carries the row's accumulated per-epoch observations
	// (violation epochs, stake curves, stake floors) — everything a cold
	// run would have gathered over the prefix epochs that the simulation
	// itself does not hold, so a resumed cell's Result is bit-identical to
	// the cold run's.
	trace simTrace
	// cont optionally carries the spine's still-live simulation positioned
	// at this checkpoint, which exactly one later RunTo or ResumeFrom may
	// claim instead of restoring the snapshot. Claiming is atomic; losers
	// fall back to Snap. Struct-copying a Prefix shares the claim.
	cont *simCont
}

// CheckpointableScenario is the Scenario extension that opts a
// protocol-simulator scenario (every simRows row, through simScenario) into
// the engine's reuse tiers. The sweep scheduler (sched.go) groups a grid's
// cells by prefix key, simulates each shared prefix once, and finishes every
// cell from its checkpoint via ResumeFrom; the durable tier
// (runFromCheckpoint) persists the prefix through EncodePrefix and resumes
// a crashed cell from it. A cell whose branch epoch is its own horizon has
// nothing left to simulate: ResumeFrom on a prefix standing at (or
// concluded before) the cell's horizon only reads it.
//
// The contract every implementation must honor, and the warm-vs-cold
// equivalence suite pins: for any resolved params p with
// Fork(p) = (key, branch, true),
//
//	Run(ctx, p)  ==  ResumeFrom(ctx, RunTo(ctx, p, nil, branch), p)
//
// bit-identically (Result.Meta aside), also when the prefix went through
// EncodePrefix and DecodePrefix on the way, and RunTo may be split at any
// intermediate epoch — RunTo(p, RunTo(p, nil, e1), e2) equals
// RunTo(p, nil, e2) — so the scheduler is free to checkpoint wherever the
// grid's branch epochs fall and run cells in any order on any number of
// workers.
type CheckpointableScenario interface {
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
	// EncodePrefix serializes a prefix (snapshot, epoch, trace, done).
	EncodePrefix(w io.Writer, pre *Prefix) error
	// DecodePrefix reconstructs a prefix serialized by EncodePrefix. Any
	// damage or version skew returns an error; callers treat it as "no
	// checkpoint".
	DecodePrefix(r io.Reader) (*Prefix, error)
	// advanceTo is RunTo without the snapshot, handing back the prefix a
	// cancelled hop reached beside the context error: how the sweep spine
	// and the durable tier advance.
	advanceTo(ctx context.Context, p Params, from *Prefix, epoch int) (*Prefix, error)
	// forkCopy returns a prefix standing where pre (advanced for the group
	// of params p) stands, on a simulation of its own that shares nothing
	// with pre's, and the copy's snapshot bytes: a sweep fork's start.
	forkCopy(p Params, pre *Prefix) (*Prefix, int64, error)
	// loadPrefix reconstructs the prefix as DecodePrefix does for cell p,
	// standing on a live simulation the frame was decoded into instead of
	// on a snapshot: the durable tier's resume (runFromCheckpoint).
	loadPrefix(r io.Reader, p Params) (*Prefix, error)
}

// WarmStartOptions turns on the sweep scheduler's snapshot tree when
// Options.WarmStart is non-nil; cells of scenarios that do not implement
// CheckpointableScenario start like any cell of a sweep without it. It has
// no fields: the tree's memory is bounded by construction (one fork copy
// per worker), not by a setting.
type WarmStartOptions struct{}

// WarmMeta is the warm-start provenance of one sweep cell, carried in
// RunMeta. The per-cell fields say what this cell reused; the sweep-wide
// fields snapshot the scheduler's counters as of this cell's completion
// (the last-completed cell carries the sweep's totals). Like all of
// RunMeta it is excluded from determinism comparisons.
type WarmMeta struct {
	// Hit marks a cell finished from a shared prefix — read off the spine
	// where it ends, or resumed from its own copy where it continues (false
	// on a cell the scheduler started outside the tree).
	Hit bool `json:"hit,omitempty"`
	// BranchEpoch is the epoch the cell left its prefix at.
	BranchEpoch int `json:"branch_epoch,omitempty"`
	// EpochsSaved counts the prefix epochs this cell did not re-simulate.
	EpochsSaved int `json:"epochs_saved,omitempty"`
	// PrefixNodes is the snapshot-tree size: distinct (prefix key, branch
	// epoch) checkpoints the sweep planned.
	PrefixNodes int `json:"prefix_nodes,omitempty"`
	// SnapshotHits counts cells served from a shared prefix so far: cells
	// read off the spine and forks resumed from their own copy of it.
	SnapshotHits int `json:"snapshot_hits,omitempty"`
	// Rebuilt is always 0: the scheduler keeps no snapshots to evict, so it
	// never re-simulates one. The field stays for readers of the JSON.
	Rebuilt int `json:"rebuilt,omitempty"`
	// PeakResidentBytes is the high-water mark so far of the snapshot bytes
	// (sim.Snapshot.Bytes) of fork copies held at once — at most one per
	// worker.
	PeakResidentBytes int64 `json:"peak_resident_bytes,omitempty"`
}
