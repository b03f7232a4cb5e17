package engine

import (
	"bytes"
	"context"
)

// DefaultCheckpointEvery is the checkpoint interval (in simulated epochs)
// when CheckpointOptions.Every is zero: frequent enough that a crashed
// Table 1 cell (~4,700 epochs) loses only a small slice of its run, rare
// enough that encoding and persisting the snapshot stays a rounding error
// against the simulation itself.
const DefaultCheckpointEvery = 500

// CheckpointStore is the durable home of mid-cell checkpoints
// (internal/store.Checkpoints is the production implementation). The
// contract mirrors the result store's: Save is atomic (temp+rename),
// Read lends only intact payloads — a torn, truncated, corrupt, or
// version-skewed entry is a silent miss, never an error — and Delete is
// idempotent.
type CheckpointStore interface {
	// ReadCheckpoint lends the newest valid checkpoint payload of the cell
	// to use, which must not keep it past its return, and reports whether
	// use took it. A payload use refuses is damaged: the store drops it and
	// counts a miss.
	ReadCheckpoint(cellKey string, use func(payload []byte) bool) bool
	// SaveCheckpoint atomically persists the cell's current checkpoint,
	// replacing any previous one.
	SaveCheckpoint(cellKey string, payload []byte) error
	// DeleteCheckpoint removes the cell's checkpoint once the cell
	// completed.
	DeleteCheckpoint(cellKey string)
}

// CheckpointOptions turns on the cell executor's durable tier (RunCell)
// for cells of CheckpointableScenario scenarios (the protocol-simulator
// scenarios), inside a sweep or out: a starting cell probes the store for
// its newest valid checkpoint and resumes from it instead of recomputing
// from epoch 0, and while running it persists a fresh checkpoint every
// Every epochs.
// Results are bit-identical to an uninterrupted cold run — the resumed
// trace carries everything the cold run would have observed.
type CheckpointOptions struct {
	// Every is the checkpoint interval in simulated epochs (0 =
	// DefaultCheckpointEvery; negative disables periodic writes, leaving
	// only resume probes).
	Every int
	// Store persists the checkpoints. Nil disables checkpointing.
	Store CheckpointStore
}

// CheckpointMeta is the durable-checkpoint provenance of one sweep cell,
// carried in RunMeta and (like all of RunMeta) excluded from determinism
// comparisons.
type CheckpointMeta struct {
	// Resumed marks a cell that found a valid on-disk checkpoint and
	// skipped re-simulating its prefix.
	Resumed bool `json:"resumed,omitempty"`
	// ResumeEpoch is the epoch of the checkpoint the cell resumed from.
	ResumeEpoch int `json:"resume_epoch,omitempty"`
	// EpochsSaved counts the epochs the resume did not re-simulate.
	EpochsSaved int `json:"epochs_saved,omitempty"`
	// Written counts the checkpoints this cell persisted while running.
	Written int `json:"written,omitempty"`
}

// RunCheckpointed executes one cell under the durable-checkpoint policy
// outside a sweep: RunCell for callers that want to know whether the policy
// applied. handled is false when it cannot (no store, scenario not
// checkpointable, invalid params, degenerate branch) and nothing ran — the
// caller then runs its plain path.
func RunCheckpointed(ctx context.Context, reg *Registry, cell Cell, ck *CheckpointOptions) (res Result, handled bool, err error) {
	sc, p, ok := resolve(reg, cell)
	if !ok {
		return Result{}, false, nil
	}
	if _, _, ok := checkpointable(sc, p, ck); !ok {
		return Result{}, false, nil
	}
	res, err = RunCell(ctx, cell, Options{Registry: reg, Checkpoint: ck})
	return res, true, err
}

// checkpointable reports whether a cell (params resolved) runs under the
// durable-checkpoint policy, and its branch epoch when it does. Without a
// store the scenario is not even asked to Fork.
func checkpointable(sc Scenario, p Params, ck *CheckpointOptions) (cs CheckpointableScenario, branch int, ok bool) {
	if ck == nil || ck.Store == nil {
		return nil, 0, false
	}
	if cs, ok = sc.(CheckpointableScenario); !ok {
		return nil, 0, false
	}
	_, branch, ok = cs.Fork(p)
	return cs, branch, ok && branch > 0
}

// saveCheckpoint encodes a prefix and persists it under the cell's key.
// Best-effort: an encode or store failure is returned for accounting but
// never aborts the run.
func saveCheckpoint(cs CheckpointableScenario, st CheckpointStore, cellKey string, pre *Prefix) error {
	var buf bytes.Buffer
	if err := cs.EncodePrefix(&buf, pre); err != nil {
		return err
	}
	return st.SaveCheckpoint(cellKey, buf.Bytes())
}

// runFromCheckpoint is the cell executor's durable tier: probe the store,
// resume from the newest valid checkpoint (or start at genesis), advance one
// hop per checkpoint interval — one hop to the branch when periodic writes
// are off — persisting a fresh checkpoint after each, and delete the
// checkpoint once the cell completes. The hop the cell finishes on — it
// reaches the cell's horizon, or the scenario concludes in it — is the sweep
// spine's stop with a group of one: ResumeFrom reads the result off the live
// simulation, and that prefix is neither encoded nor saved.
// It fills meta as it goes and also returns the epochs
// the cell actually simulated: where its final prefix stands when the
// scenario concluded there (a sim/leak run that conflicts at 4668 of 6000
// simulated 4668), else the horizon ResumeFrom ran the tail to (a
// conclusion inside that tail is still counted at full horizon).
//
// A cancelled hop hands back the prefix it reached (advanceTo), which is
// saved before the context error is returned: a drained worker's
// in-flight cell resumes at the epoch the cancellation landed on.
func runFromCheckpoint(ctx context.Context, cs CheckpointableScenario, p Params, branch int, cellKey string, ck *CheckpointOptions, meta *CheckpointMeta) (Result, int, error) {
	every := ck.Every
	if every == 0 {
		every = DefaultCheckpointEvery
	}

	// The prefix is decoded where the payload was lent, into a spare
	// simulation it then stands on, and copies what it keeps. A payload
	// whose store framing was intact but whose inner bytes were not (codec
	// version skew, schema drift) is refused: the same verdict as
	// corruption, and the cell starts cold.
	var pre *Prefix
	ck.Store.ReadCheckpoint(cellKey, func(payload []byte) bool {
		dec, err := cs.loadPrefix(bytes.NewReader(payload), p)
		if err == nil {
			pre = dec
		}
		return err == nil
	})
	if pre != nil {
		*meta = CheckpointMeta{Resumed: true, ResumeEpoch: pre.Epoch, EpochsSaved: pre.Epoch}
	}

	// save encodes the prefix off its live simulation and persists it. A
	// failed persist only costs resume depth, never the run.
	save := func(pre *Prefix) {
		if saveCheckpoint(cs, ck.Store, cellKey, pre) == nil {
			meta.Written++
		}
	}

	for pre == nil || (!pre.Done && pre.Epoch < branch) {
		next := branch
		if every > 0 {
			cur := 0
			if pre != nil {
				cur = pre.Epoch
			}
			next = min(cur+every, branch)
		}
		reached, err := cs.advanceTo(ctx, p, pre, next)
		if err != nil {
			if reached != nil {
				save(reached)
			}
			return Result{}, 0, err
		}
		pre = reached
		if pre.Done || pre.Epoch >= p.Horizon {
			break // nothing left to simulate: finish off the live simulation
		}
		save(pre)
	}

	// The prefix stands on its live simulation (loaded or advanced here),
	// which ResumeFrom claims, or only reads when nothing is left to step.
	res, err := cs.ResumeFrom(ctx, pre, p)
	// Cancelled while finishing: a prefix whose simulation is still on it
	// is the unsaved one the cell finishes on, and it was only read (a
	// claimed one is spent, and its save fails).
	if err != nil {
		save(pre)
	}
	// A simulation ResumeFrom only read is still on the prefix, and this
	// runner was its last holder.
	recycle(pre.claim())
	if err != nil {
		return Result{}, 0, err
	}
	ck.Store.DeleteCheckpoint(cellKey)
	if pre.Done {
		return res, pre.Epoch, nil
	}
	return res, p.Horizon, nil
}
