package engine

import (
	"context"
	"time"
)

// RunCell executes one cell. It is the one way a cell runs — every job of
// a sweep, RunCheckpointed, Registry.RunContext, gasperleak.Client.Run and
// the server's /run all come through here — and so the one place that
// resolves the scenario and defaults the params, picks the deepest start
// available, runs, and stamps the result with scenario, effective params
// and wall-clock duration. The starts, deepest first: the finished result
// in opt.Results (returned stamped Cached, nothing run), a prefix the
// caller already holds in memory (the sweep scheduler's snapshot tree), the
// cell's durable checkpoint in opt.Checkpoint (checkpointable scenarios
// only; the run then also persists fresh checkpoints as it goes), genesis.
// A computed success is put to opt.Results. RunCell runs in-process: it
// ignores Workers, WarmStart and Dispatch.
//
// A failure is reported both ways: as the error, and as the Result a sweep
// streams for a failed cell (FailedCell).
func RunCell(ctx context.Context, cell Cell, opt Options) (Result, error) {
	key, res, hit := lookup(opt.Registry, opt.Results, cell)
	if hit {
		return res, nil
	}
	res, err := runCell(ctx, opt.Registry, cell, opt.Checkpoint, nil)
	save(opt.Results, key, res)
	return res, err
}

// lookup consults a result tier for one cell: its canonical key, and the
// result stamped Cached on a hit. Without a tier, or for a scenario the
// registry does not hold, no key is built and key is "".
func lookup(reg *Registry, tier ResultTier, cell Cell) (key string, res Result, hit bool) {
	if tier == nil {
		return "", Result{}, false
	}
	key, ok := CanonicalCellKey(reg, cell)
	if !ok {
		return "", Result{}, false
	}
	if res, hit = tier.Get(key); hit {
		res.Meta = RunMeta{Cached: true}.Merged(res.Meta)
	}
	return key, res, hit
}

// save puts a successful result's payload, Meta stripped, to the tier under
// the key lookup built; a failure or a cell without a key is not saved.
func save(tier ResultTier, key string, res Result) {
	if key != "" && res.Err == "" {
		tier.Put(key, res.WithoutMeta()) //nolint:errcheck // a failed put only costs a future recomputation
	}
}

// runCell is RunCell below the result tier, plus the in-memory tier: held,
// when non-nil, yields the prefix the cell resumes from. Such a cell skips
// the durable tier — the prefix is shared with its group, not the cell's
// own to persist.
func runCell(ctx context.Context, reg *Registry, cell Cell, ck *CheckpointOptions, held func() (*Prefix, error)) (Result, error) {
	if reg == nil {
		reg = Default
	}
	sc, ok := reg.Lookup(cell.Scenario)
	if !ok {
		err := reg.unknown(cell.Scenario)
		return FailedCell(reg, cell, err), err
	}
	p := cell.Params.WithDefaults(sc.Defaults())
	if err := ctx.Err(); err != nil {
		// Cancelled before the cell started: no Meta — no work was done.
		return FailedCell(reg, cell, err), err
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
		res = FailedCell(reg, cell, err)
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

// FailedCell is the Result of a cell that could not run to completion:
// scenario, the params defaulted when the scenario resolves (so the record
// documents the run it attempted), and Err. A nil registry is Default.
func FailedCell(reg *Registry, cell Cell, err error) Result {
	if reg == nil {
		reg = Default
	}
	p := cell.Params
	if sc, ok := reg.Lookup(cell.Scenario); ok {
		p = p.WithDefaults(sc.Defaults())
	}
	return Result{Scenario: cell.Scenario, Params: p, Err: err.Error()}
}
