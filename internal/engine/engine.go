// Package engine unifies the reproduction's scenario runners — the
// analytic solvers (internal/analytic), the paper-scale engines
// LeakSim/BounceMC (internal/core), and the full protocol simulator
// (internal/sim) — behind one Scenario interface with a named registry,
// and fans parameter grids out over a bounded worker pool (Sweep).
//
// Every runner consumes the same Params record and emits the same
// structured Result record, so one CLI, one renderer, and one sweep
// driver serve every artifact of the paper and any grid beyond it.
package engine

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
)

// Metric is one named scalar output of a scenario run. Metrics are an
// ordered list (not a map) so that rendered columns are stable.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// CurvePoint is one sample of a scenario trajectory.
type CurvePoint struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Result is the structured record every scenario emits; internal/report
// renders slices of it as ASCII tables, CSV, and JSON.
type Result struct {
	// Scenario is the registry name that produced the result.
	Scenario string `json:"scenario"`
	// Params are the resolved parameters of the run: defaulted, with every
	// dimension the scenario does not read zeroed.
	Params Params `json:"params"`
	// Outcome is the paper's qualitative outcome line, when one applies.
	Outcome string `json:"outcome,omitempty"`
	// Metrics are the scalar outputs, in a scenario-fixed order.
	Metrics []Metric `json:"metrics,omitempty"`
	// CurveName and Curve optionally carry a sampled trajectory
	// (Params.Sample > 0).
	CurveName string       `json:"curve_name,omitempty"`
	Curve     []CurvePoint `json:"curve,omitempty"`
	// Err records a per-cell failure inside a sweep (empty = success).
	Err string `json:"error,omitempty"`
	// Meta carries execution metadata (wall-clock duration, cache
	// provenance). It is nil for results that never went through a sweep
	// or a serving layer, and is deliberately excluded from determinism
	// comparisons: the payload above is bit-identical across worker
	// counts, the timing below is not.
	Meta *RunMeta `json:"meta,omitempty"`
}

// RunMeta is the non-deterministic execution metadata of a Result.
type RunMeta struct {
	// DurationMS is the wall-clock time of the cell's computation in
	// milliseconds.
	DurationMS float64 `json:"duration_ms,omitempty"`
	// EpochsPerSec is the sustained simulation throughput of the cell
	// (simulated epochs divided by wall-clock seconds). Zero for
	// non-simulation scenarios.
	EpochsPerSec float64 `json:"epochs_per_sec,omitempty"`
	// Sim carries end-of-run simulation retention statistics. Nil for
	// non-simulation scenarios.
	Sim *SimStats `json:"sim,omitempty"`
	// Cached marks a result served from a cache instead of recomputed.
	Cached bool `json:"cached,omitempty"`
	// Warm carries snapshot-tree warm-start provenance when the cell ran
	// through the warm-start sweep scheduler. Nil on cold runs.
	Warm *WarmMeta `json:"warm,omitempty"`
	// Checkpoint carries durable-checkpoint provenance when the cell ran
	// with a checkpoint store configured (Options.Checkpoint). Nil
	// otherwise.
	Checkpoint *CheckpointMeta `json:"checkpoint,omitempty"`
}

// SimStats summarizes what a simulation still held in memory when it
// finished: block-tree node columns across all materialized views (after
// any pruning/compaction), the skip-segment and folded-block counts spine
// compaction produced, and the fork-choice engines' column footprint.
type SimStats struct {
	TreeNodes    int `json:"tree_nodes,omitempty"`
	TreeSegments int `json:"tree_segments,omitempty"`
	TreeFolded   int `json:"tree_folded,omitempty"`
	// TreeBytes is the storage the views' trees retain, counted at
	// capacity (blocktree.Stats.Bytes): Compact, PruneBelow and a reset for
	// the next cell keep a tree's node pages and root index at the largest
	// size it reached, so this reads above what the live blocks alone would
	// need. EngineBytes counts capacity the same way.
	TreeBytes   int `json:"tree_bytes,omitempty"`
	OracleNodes int `json:"oracle_nodes,omitempty"`
	EngineBytes int `json:"engine_bytes,omitempty"`
	// LaneEpochs counts the epochs the simulation stepped lane by lane, a
	// lane per honest partition at once (sim.Stats.LaneEpochs); it depends
	// on GOMAXPROCS, as the wall-clock fields do.
	LaneEpochs int `json:"lane_epochs,omitempty"`
}

// Merged returns m with the non-deterministic fields of prior carried
// over where m itself has none — serving layers stamp their own
// duration/cache provenance without erasing the throughput a scenario
// measured.
func (m RunMeta) Merged(prior *RunMeta) *RunMeta {
	if prior != nil {
		if m.EpochsPerSec == 0 {
			m.EpochsPerSec = prior.EpochsPerSec
		}
		if m.Sim == nil {
			m.Sim = prior.Sim
		}
		if m.Warm == nil {
			m.Warm = prior.Warm
		}
		if m.Checkpoint == nil {
			m.Checkpoint = prior.Checkpoint
		}
	}
	return &m
}

// WithoutMeta returns a copy of r with execution metadata stripped, for
// comparing the deterministic payload of two runs.
func (r Result) WithoutMeta() Result {
	r.Meta = nil
	return r
}

// StripMeta returns a copy of the slice with every result's execution
// metadata stripped.
func StripMeta(results []Result) []Result {
	out := make([]Result, len(results))
	for i, r := range results {
		out[i] = r.WithoutMeta()
	}
	return out
}

// Metric returns the named metric value and whether it is present.
func (r Result) Metric(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// String renders the result as one report line.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %s", r.Scenario, r.Params)
	if r.Outcome != "" {
		fmt.Fprintf(&b, " outcome=%q", r.Outcome)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(&b, " %s=%.6g", m.Name, m.Value)
	}
	if r.Err != "" {
		fmt.Fprintf(&b, " error=%q", r.Err)
	}
	return b.String()
}

// Scenario is one runnable analysis: an analytic solver, a paper-scale
// engine, or a protocol-simulator experiment.
type Scenario interface {
	// Name is the registry key (e.g. "5.2.1", "leaksim", "bounce-mc").
	Name() string
	// Description is a one-line human summary.
	Description() string
	// Defaults are the parameters of the canonical (paper) run.
	Defaults() Params
	// reads is the mask of the Params dimensions Run reads, declared
	// beside Defaults (NewScenario, simRow, paperRow); resolve zeroes
	// every other one.
	reads() Field
	// Run executes the scenario. Params arrive resolved (defaulted, every
	// dimension the scenario does not read zeroed) when the call goes
	// through a Registry. Cancellation is cooperative: a long run observes
	// ctx inside its own loops and returns its error.
	Run(ctx context.Context, p Params) (Result, error)
}

// funcScenario adapts a plain function to the Scenario interface.
type funcScenario struct {
	name, desc string
	defaults   Params
	dims       Field
	run        func(context.Context, Params) (Result, error)
}

func (s funcScenario) Name() string        { return s.name }
func (s funcScenario) Description() string { return s.desc }
func (s funcScenario) Defaults() Params    { return s.defaults }
func (s funcScenario) reads() Field        { return s.dims }
func (s funcScenario) Run(ctx context.Context, p Params) (Result, error) {
	return s.run(ctx, p)
}

// NewScenario builds a Scenario from a function. reads declares the Params
// dimensions run reads: a Registry zeroes every other one before run sees
// the params (resolve), so an ignored value is stamped 0 on the result and
// never makes a cell key of its own.
func NewScenario(name, desc string, defaults Params, reads Field, run func(context.Context, Params) (Result, error)) Scenario {
	return funcScenario{name: name, desc: desc, defaults: defaults, dims: reads, run: run}
}

// resolve is the one door from a cell to the run it names: the scenario,
// and the cell's params defaulted from it with every dimension it does not
// read zeroed. The mask stays FieldAll, so a result's params still print
// all nine keys. The cell's key (CanonicalCellKey), its run (runCell), its
// prefix group (PrefixGroups), the checkpoint policy (RunCheckpointed) and
// its failure record (FailedCell) all see this one canonical cell. ok =
// false means the registry (nil = Default) does not hold the scenario; p is
// then the cell's own params.
func resolve(reg *Registry, cell Cell) (sc Scenario, p Params, ok bool) {
	if reg == nil {
		reg = Default
	}
	if sc, ok = reg.Lookup(cell.Scenario); !ok {
		return nil, cell.Params, false
	}
	return sc, cell.Params.resolved(sc.Defaults(), sc.reads()), true
}

// Registry is a named set of scenarios. The zero value is not usable;
// construct with NewRegistry.
type Registry struct {
	mu        sync.RWMutex
	scenarios map[string]Scenario
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{scenarios: make(map[string]Scenario)}
}

// Register adds a scenario; registering a duplicate name is an error.
func (r *Registry) Register(s Scenario) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.scenarios[s.Name()]; ok {
		return fmt.Errorf("engine: scenario %q already registered", s.Name())
	}
	r.scenarios[s.Name()] = s
	return nil
}

// MustRegister is Register, panicking on error (for init-time wiring).
func (r *Registry) MustRegister(s Scenario) {
	if err := r.Register(s); err != nil {
		panic(err)
	}
}

// Lookup returns the named scenario.
func (r *Registry) Lookup(name string) (Scenario, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.scenarios[name]
	return s, ok
}

// Names returns the registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := slices.AppendSeq(make([]string, 0, len(r.scenarios)), maps.Keys(r.scenarios))
	slices.Sort(names)
	return names
}

// RunContext resolves the cell (resolve), executes it, and stamps the
// result with the scenario name and its resolved parameters —
// one cell through the cell executor, with no result tier and no
// checkpoints. A cancelled context stops the run before it starts; after
// that, cancellation is the scenario's to observe (Scenario.Run). On error
// the Result is zero.
func (r *Registry) RunContext(ctx context.Context, name string, p Params) (Result, error) {
	res, err := runCell(ctx, r, Cell{Scenario: name, Params: p}, nil, nil, nil)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// unknown is the error for a name the registry does not hold.
func (r *Registry) unknown(name string) error {
	return fmt.Errorf("engine: unknown scenario %q (have: %s)", name, strings.Join(r.Names(), ", "))
}

// Info is the serializable description of one registered scenario.
type Info struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Defaults    Params `json:"defaults"`
}

// Infos describes every registered scenario, sorted by name.
func (r *Registry) Infos() []Info {
	names := r.Names()
	infos := make([]Info, 0, len(names))
	for _, n := range names {
		s, _ := r.Lookup(n)
		infos = append(infos, Info{Name: s.Name(), Description: s.Description(), Defaults: s.Defaults()})
	}
	return infos
}

// Default is the package registry holding every built-in scenario.
var Default = NewRegistry()

// RunContext executes a scenario from the default registry.
func RunContext(ctx context.Context, name string, p Params) (Result, error) {
	return Default.RunContext(ctx, name, p)
}

// Lookup finds a scenario in the default registry.
func Lookup(name string) (Scenario, bool) { return Default.Lookup(name) }
