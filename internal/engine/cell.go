package engine

import (
	"context"
	"time"
)

// RunCell executes one cell. It is the one way a cell runs — every job of
// a sweep, RunCheckpointed, gasperleak.Client.Run and the server's /run all
// come through here — and so the one place that resolves the scenario and
// defaults the params, picks the deepest start available, runs, and stamps
// the result with scenario, effective params and wall-clock duration. The
// starts, deepest first: a prefix the caller already holds in memory (the
// sweep scheduler's snapshot tree), the cell's durable checkpoint in
// ck.Store (checkpointable scenarios only; the run then also persists
// fresh checkpoints as it goes), genesis.
//
// A failure is reported both ways: as the error, and as the Result a sweep
// streams for a failed cell — scenario, the defaulted params when
// resolvable (so the record documents the run it attempted), and Err.
func RunCell(ctx context.Context, reg *Registry, cell Cell, ck *CheckpointOptions) (Result, error) {
	return runCell(ctx, reg, cell, ck, nil)
}

// runCell is RunCell plus the in-memory tier: held, when non-nil, yields
// the prefix the cell resumes from. Such a cell skips the durable tier —
// the prefix is shared with its group, not the cell's own to persist.
func runCell(ctx context.Context, reg *Registry, cell Cell, ck *CheckpointOptions, held func() (*Prefix, error)) (Result, error) {
	if reg == nil {
		reg = Default
	}
	sc, ok := reg.Lookup(cell.Scenario)
	if !ok {
		err := reg.unknown(cell.Scenario)
		return failedCell(cell, cell.Params, err), err
	}
	p := cell.Params.WithDefaults(sc.Defaults())
	if err := ctx.Err(); err != nil {
		// Cancelled before the cell started: no Meta — no work was done.
		return failedCell(cell, p, err), err
	}

	start := time.Now() //gasper:nondet wall-clock duration metadata only; never part of result identity
	var res Result
	var err error
	var ckMeta *CheckpointMeta
	simulated := 0
	if held != nil {
		var pre *Prefix
		if pre, err = held(); err == nil {
			res, err = sc.(ForkableScenario).ResumeFrom(ctx, pre, p)
		}
	} else if cs, branch, ok := checkpointable(sc, p, ck); ok {
		ckMeta = &CheckpointMeta{}
		res, simulated, err = runFromCheckpoint(ctx, cs, p, branch, CellKey(cell.Scenario, p), ck, ckMeta)
	} else {
		res, err = sc.Run(ctx, p)
	}
	if err != nil {
		res = failedCell(cell, p, err)
	} else {
		res.Scenario, res.Params = sc.Name(), p
	}
	res.Meta = RunMeta{
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond), //gasper:nondet wall-clock duration metadata only; never part of result identity
		Checkpoint: ckMeta,
	}.Merged(res.Meta)
	// The scenario stamped throughput over ResumeFrom's tail alone; under
	// the durable tier the runner's hops did the work, so restate it
	// over the whole wall clock. Like warm start, a resumed cell counts the
	// epochs its checkpoint skipped — effective throughput.
	if secs := res.Meta.DurationMS / 1000; simulated > 0 && secs > 0 {
		res.Meta.EpochsPerSec = float64(simulated) / secs
	}
	return res, err
}

// failedCell is the Result of a cell that could not run to completion.
func failedCell(cell Cell, p Params, err error) Result {
	return Result{Scenario: cell.Scenario, Params: p, Err: err.Error()}
}
