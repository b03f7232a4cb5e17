package gasperleak

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/store"
)

// Streaming-API re-exports.
type (
	// SweepUpdate is one event of a streaming sweep: a finished cell's
	// result plus progress counts.
	SweepUpdate = engine.Update
	// ScenarioInfo is the serializable description of one registered
	// scenario.
	ScenarioInfo = engine.Info
	// ScenarioRunMeta is the non-deterministic execution metadata of a
	// ScenarioResult (wall-clock duration, sustained simulation
	// throughput, cache provenance, warm-start provenance).
	ScenarioRunMeta = engine.RunMeta
	// ScenarioSimStats is the end-of-run retention summary simulation
	// scenarios attach to their metadata (block-tree and fork-choice
	// column sizes after compaction).
	ScenarioSimStats = engine.SimStats
	// SweepWarmMeta is the warm-start provenance of one sweep cell
	// (ScenarioRunMeta.Warm): what the cell reused and the scheduler's
	// running counters.
	SweepWarmMeta = engine.WarmMeta
	// ScenarioCheckpointMeta is the durable-checkpoint provenance of one
	// sweep cell (ScenarioRunMeta.Checkpoint): whether it resumed from an
	// on-disk checkpoint and how many epochs the resume skipped.
	ScenarioCheckpointMeta = engine.CheckpointMeta
)

// Client is the entry point of the reproduction: a handle on a scenario
// registry plus execution policy (worker pool width), with every run and
// sweep threaded through a context.Context for cancellation and deadlines.
//
//	c, err := gasperleak.NewClient(gasperleak.WithWorkers(8))
//	res, err := c.Run(ctx, "5.2.1", gasperleak.ScenarioParams{Beta0: 0.2})
//	for u := range c.SweepStream(ctx, cells) { ... }
//
// The zero worker count means "all CPUs"; negative counts are rejected by
// NewClient so every CLI and service layered on the client validates
// -workers uniformly.
type Client struct {
	// opt is the execution policy every run, sweep and table goes through:
	// registry, pool width, warm start, checkpoints, and the result store
	// as its result tier.
	opt engine.Options
}

// ClientOption configures a Client (functional options).
type ClientOption func(*Client) error

// WithWorkers bounds the client's sweep concurrency (0 = all CPUs).
// Negative counts are rejected.
func WithWorkers(n int) ClientOption {
	return func(c *Client) error {
		if n < 0 {
			return fmt.Errorf("gasperleak: workers = %d, want >= 0 (0 = all CPUs)", n)
		}
		c.opt.Workers = n
		return nil
	}
}

// WithWarmStart routes the client's sweeps through the snapshot-tree
// warm-start scheduler: cells sharing a simulation prefix (same scenario,
// same pre-branch parameters) are fanned out from one simulated prefix
// instead of each re-simulating from genesis. Results stay bit-identical
// to cold sweeps; scenarios that do not support warm-starting fall back
// cell by cell.
func WithWarmStart() ClientOption {
	return func(c *Client) error {
		c.opt.WarmStart = &engine.WarmStartOptions{}
		return nil
	}
}

// WithResultStore backs the client with the persistent content-addressed
// result store rooted at dir (created if needed): runs and sweep cells
// whose canonical (scenario, resolved params) key is already on disk are
// served from the store without recomputation, and fresh computes are
// written through. The store is shared currency with the serve fabric —
// the same directory, keys, and bytes — so results computed by a server
// (or an earlier process) are hits here and vice versa. Call Close when
// done.
func WithResultStore(dir string) ClientOption {
	return func(c *Client) error {
		st, err := store.OpenResults(dir)
		if err != nil {
			return fmt.Errorf("gasperleak: opening result store: %w", err)
		}
		c.opt.Results = st
		return nil
	}
}

// WithCheckpoints turns on durable mid-cell checkpointing for the
// client's sweeps, sharing the WithResultStore directory (NewClient
// rejects the combination without one): long-horizon simulation cells
// persist a restartable snapshot every `every` epochs, and a re-run of
// an interrupted sweep resumes each cell from its newest on-disk
// checkpoint instead of recomputing from epoch 0 — with bit-identical
// results. every = 0 uses the engine default interval; negative keeps
// resume probes but disables periodic writes. Cancellation (Ctrl-C in
// the CLIs) saves each in-flight cell's checkpoint at the epoch it had
// reached before the sweep unwinds, and completed cells delete theirs.
func WithCheckpoints(every int) ClientOption {
	return func(c *Client) error {
		c.opt.Checkpoint = &engine.CheckpointOptions{Every: every}
		return nil
	}
}

// NewClient builds a client over the built-in scenario registry, all-CPU
// sweeps, and no deadline, then applies the options in order.
func NewClient(opts ...ClientOption) (*Client, error) {
	c := &Client{opt: engine.Options{Registry: engine.Default}}
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	// Resolved after all options so WithCheckpoints and WithResultStore
	// compose in either order.
	if ck := c.opt.Checkpoint; ck != nil {
		st := c.store()
		if st == nil {
			return nil, fmt.Errorf("gasperleak: WithCheckpoints requires WithResultStore (checkpoints live in the store directory)")
		}
		ck.Store = st.Checkpoints()
	}
	return c, nil
}

// store is the client's persistent store, nil without one.
func (c *Client) store() *store.Results {
	st, _ := c.opt.Results.(*store.Results)
	return st
}

// Close releases the client's persistent store (no-op without one).
// Reads from an already-open store keep working after Close; writes stop.
func (c *Client) Close() error {
	if st := c.store(); st != nil {
		return st.Close()
	}
	return nil
}

// Scenarios describes every registered scenario, sorted by name.
func (c *Client) Scenarios() []ScenarioInfo { return c.opt.Registry.Infos() }

// Lookup finds a scenario in the client's registry.
func (c *Client) Lookup(name string) (Scenario, bool) { return c.opt.Registry.Lookup(name) }

// Run executes one scenario with cooperative cancellation: scenarios with
// long internal loops (leaksim, bounce-mc, fig7-threshold, sim/partition)
// observe ctx mid-run. It is one cell through the engine's cell executor,
// exactly as a sweep runs it: repeated parameter points are served from the
// persistent store when one is configured (WithResultStore), marked Cached
// in their metadata, and with a checkpoint tier eligible long-horizon runs
// persist mid-run state and resume across invocations (an interrupted run
// saves the epoch it reached on the way out).
func (c *Client) Run(ctx context.Context, name string, p ScenarioParams) (ScenarioResult, error) {
	res, err := engine.RunCell(ctx, SweepCell{Scenario: name, Params: p}, c.opt)
	if err != nil {
		return ScenarioResult{}, err
	}
	return res, nil
}

// SweepStream fans the cells out over the client's worker pool and yields
// one update per cell as it completes (completion order). The caller must
// drain the channel; after ctx is cancelled the remaining cells are marked
// with the context error and the stream closes promptly. Result payloads
// are bit-identical for any worker count (Meta carries the timing).
// With a persistent store (WithResultStore), cells already on disk are
// emitted first without recomputation and fresh computes are written
// through; payloads stay bit-identical either way.
func (c *Client) SweepStream(ctx context.Context, cells []SweepCell) <-chan SweepUpdate {
	return engine.SweepStream(ctx, cells, c.opt)
}

// Sweep collects a streaming sweep into one result per cell, in cell
// order. Unfinished cells after cancellation record the context error.
func (c *Client) Sweep(ctx context.Context, cells []SweepCell) []ScenarioResult {
	return engine.SweepContext(ctx, cells, c.opt)
}

// SweepGrid expands a parameter grid and sweeps it.
func (c *Client) SweepGrid(ctx context.Context, g SweepGrid) []ScenarioResult {
	return c.Sweep(ctx, g.Cells())
}

// RenderTable renders the paper's Table n (1, 2 or 3) over the client's
// pool; seed drives Table 1's Monte-Carlo row.
func (c *Client) RenderTable(ctx context.Context, n int, seed int64) (*ReportTable, error) {
	if n == 1 {
		return report.Table1(ctx, seed, c.opt)
	}
	return report.BetaTable(ctx, n, c.opt)
}

// Figure3Sim overlays the integer simulation on Figure 3's grid.
func (c *Client) Figure3Sim(ctx context.Context, every int) (*Figure, error) {
	return report.Figure3Sim(ctx, every, c.opt)
}

// Figure7Sim overlays the integer-simulation threshold boundary on
// Figure 7.
func (c *Client) Figure7Sim(ctx context.Context, points int) (*Figure, error) {
	return report.Figure7Sim(ctx, points, c.opt)
}

// Figure10MonteCarlo overlays the integer Monte-Carlo on Figure 10.
func (c *Client) Figure10MonteCarlo(ctx context.Context, beta0 float64, nHonest, runs int, seed int64) (*Figure, error) {
	return report.Figure10MonteCarlo(ctx, beta0, nHonest, runs, seed, c.opt)
}

// SweepThroughput summarizes a sweep's pacing (cells/sec and cumulative
// compute time) from the results' duration metadata and the measured wall
// clock.
func SweepThroughput(results []ScenarioResult, wall time.Duration) string {
	return report.SweepThroughput(results, wall)
}
