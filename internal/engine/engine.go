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
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
)

// Field identifies one Params field for explicit-presence tracking; see
// Params.Explicit.
type Field uint16

// Field bits, one per Params field.
const (
	FieldP0 Field = 1 << iota
	FieldBeta0
	FieldMode
	FieldSeed
	FieldN
	FieldHorizon
	FieldSample
	FieldRate
	FieldGST
)

// fieldKeys maps the canonical parameter key (JSON key, sweep-grid key,
// CLI flag name — they agree) to its presence bit.
var fieldKeys = map[string]Field{
	"p0":      FieldP0,
	"beta0":   FieldBeta0,
	"mode":    FieldMode,
	"seed":    FieldSeed,
	"n":       FieldN,
	"horizon": FieldHorizon,
	"sample":  FieldSample,
	"rate":    FieldRate,
	"gst":     FieldGST,
}

// FieldAll marks every Params field explicit — the mask of a fully
// specified record, which is what WithDefaults produces.
const FieldAll = FieldP0 | FieldBeta0 | FieldMode | FieldSeed | FieldN |
	FieldHorizon | FieldSample | FieldRate | FieldGST

// FieldForKey resolves a canonical parameter key ("p0", "rate", "gst", …)
// to its presence bit. CLIs use it with flag.Visit to mark exactly the
// flags the user passed.
func FieldForKey(key string) (Field, bool) {
	f, ok := fieldKeys[key]
	return f, ok
}

// Params parameterizes one scenario run. An UNSET field means "use the
// scenario's default" (see Scenario.Defaults and WithDefaults). Presence
// is tracked explicitly in the Explicit mask: a field is taken as set when
// it is non-zero OR its bit is marked, so an explicit rate=0 (lossless
// baseline), gst=0 (heal immediately), p0=0, or beta0=0 survives
// defaulting instead of being silently rewritten to the scenario default —
// the bug that used to corrupt the baseline cell of any sweep whose
// scenario defaults that dimension to a non-zero value. DecodeParams marks
// keys present in a JSON document; Grid.Cells marks swept dimensions;
// CLIs mark visited flags.
type Params struct {
	// P0 is the honest split: the proportion of honest validators on
	// branch A (or the per-epoch placement probability in bouncing
	// scenarios).
	P0 float64 `json:"p0,omitempty"`
	// Beta0 is the initial Byzantine stake proportion.
	Beta0 float64 `json:"beta0,omitempty"`
	// Mode selects a scenario-specific variant (e.g. the Byzantine
	// strategy of the leaksim scenario).
	Mode string `json:"mode,omitempty"`
	// Seed drives every pseudo-random choice of stochastic scenarios.
	Seed int64 `json:"seed,omitempty"`
	// N scales the scenario (validator count).
	N int `json:"n,omitempty"`
	// Horizon bounds the run in epochs, or sets the evaluation epoch of
	// point estimates (bounce probabilities).
	Horizon int `json:"horizon,omitempty"`
	// Sample requests a trajectory sampled every Sample epochs in the
	// Result's Curve (0 = scalar metrics only).
	Sample int `json:"sample,omitempty"`
	// Rate is the network link-outage probability of protocol-simulator
	// scenarios (the sim/drops robustness dimension).
	Rate float64 `json:"rate,omitempty"`
	// GST is the epoch at which network partitions heal in
	// protocol-simulator scenarios (the sim/gst heal dimension).
	GST int `json:"gst,omitempty"`
	// Explicit marks fields the caller set on purpose, so WithDefaults
	// keeps an explicit zero instead of substituting the scenario
	// default. It is presence metadata, not a parameter, and it rides
	// the JSON key set rather than appearing as its own key: marshalling
	// emits exactly the fields that are non-zero or marked, and
	// unmarshalling marks exactly the keys present in the document. A
	// fully defaulted Params (WithDefaults) carries FieldAll, so a
	// result's parameter record serializes completely — an explicit
	// rate=0 survives a JSON round trip instead of vanishing into
	// omitempty and decoding back as "use the default".
	Explicit Field `json:"-"`
}

// MarshalJSON emits every field that is non-zero or marked explicit, so a
// sparse request stays sparse and a fully specified record stays
// complete.
func (p Params) MarshalJSON() ([]byte, error) {
	doc := make(map[string]any, 9)
	put := func(f Field, key string, zero bool, v any) {
		if !zero || p.IsExplicit(f) {
			doc[key] = v
		}
	}
	put(FieldP0, "p0", p.P0 == 0, p.P0)
	put(FieldBeta0, "beta0", p.Beta0 == 0, p.Beta0)
	put(FieldMode, "mode", p.Mode == "", p.Mode)
	put(FieldSeed, "seed", p.Seed == 0, p.Seed)
	put(FieldN, "n", p.N == 0, p.N)
	put(FieldHorizon, "horizon", p.Horizon == 0, p.Horizon)
	put(FieldSample, "sample", p.Sample == 0, p.Sample)
	put(FieldRate, "rate", p.Rate == 0, p.Rate)
	put(FieldGST, "gst", p.GST == 0, p.GST)
	return json.Marshal(doc)
}

// UnmarshalJSON decodes the document and marks every present key as
// explicitly set — the inverse of MarshalJSON, so round trips preserve
// presence.
func (p *Params) UnmarshalJSON(data []byte) error {
	type plain Params
	var v plain
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		return err
	}
	*p = Params(v)
	p.Explicit = 0
	//gasper:ordered presence bits ORed together: commutative
	for key, f := range fieldKeys {
		if _, ok := keys[key]; ok {
			p.Explicit |= f
		}
	}
	return nil
}

// IsExplicit reports whether the field was marked explicitly set.
func (p Params) IsExplicit(f Field) bool { return p.Explicit&f != 0 }

// MarkExplicit returns p with the given fields marked explicitly set.
func (p Params) MarkExplicit(fields ...Field) Params {
	for _, f := range fields {
		p.Explicit |= f
	}
	return p
}

// DecodeParams unmarshals a JSON document into Params; key presence
// marks Explicit (see UnmarshalJSON), which is what lets {"rate": 0}
// mean "rate zero" rather than "scenario default".
func DecodeParams(data []byte) (Params, error) {
	var p Params
	if err := json.Unmarshal(data, &p); err != nil {
		return Params{}, err
	}
	return p, nil
}

// WithDefaults fills every unset field of p from d. A field is unset when
// it is zero-valued AND not marked in p.Explicit. The result is a fully
// specified record, so its mask is FieldAll: every field — explicit
// zeros included — survives serialization, and fully defaulted Params
// compare equal regardless of how their zeros were originally spelled.
func (p Params) WithDefaults(d Params) Params {
	if p.P0 == 0 && !p.IsExplicit(FieldP0) {
		p.P0 = d.P0
	}
	if p.Beta0 == 0 && !p.IsExplicit(FieldBeta0) {
		p.Beta0 = d.Beta0
	}
	if p.Mode == "" && !p.IsExplicit(FieldMode) {
		p.Mode = d.Mode
	}
	if p.Seed == 0 && !p.IsExplicit(FieldSeed) {
		p.Seed = d.Seed
	}
	if p.N == 0 && !p.IsExplicit(FieldN) {
		p.N = d.N
	}
	if p.Horizon == 0 && !p.IsExplicit(FieldHorizon) {
		p.Horizon = d.Horizon
	}
	if p.Sample == 0 && !p.IsExplicit(FieldSample) {
		p.Sample = d.Sample
	}
	if p.Rate == 0 && !p.IsExplicit(FieldRate) {
		p.Rate = d.Rate
	}
	if p.GST == 0 && !p.IsExplicit(FieldGST) {
		p.GST = d.GST
	}
	p.Explicit = FieldAll
	return p
}

// String renders the non-zero parameters compactly.
func (p Params) String() string {
	var b strings.Builder
	add := func(format string, args ...any) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, format, args...)
	}
	add("p0=%.4g", p.P0)
	if p.Beta0 != 0 {
		add("beta0=%.4g", p.Beta0)
	}
	if p.Mode != "" {
		add("mode=%s", p.Mode)
	}
	if p.Seed != 0 {
		add("seed=%d", p.Seed)
	}
	if p.N != 0 {
		add("n=%d", p.N)
	}
	if p.Horizon != 0 {
		add("horizon=%d", p.Horizon)
	}
	if p.Rate != 0 {
		add("rate=%.4g", p.Rate)
	}
	if p.GST != 0 {
		add("gst=%d", p.GST)
	}
	return b.String()
}

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
	// Params are the fully-defaulted parameters of the run.
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
	TreeBytes    int `json:"tree_bytes,omitempty"`
	OracleNodes  int `json:"oracle_nodes,omitempty"`
	EngineBytes  int `json:"engine_bytes,omitempty"`
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
	// Run executes the scenario. Params arrive fully defaulted when the
	// call goes through a Registry.
	Run(p Params) (Result, error)
}

// ContextRunner is the optional context-aware extension of Scenario.
// Long-running scenarios implement it to observe cooperative cancellation
// inside their epoch loops; Registry.RunContext prefers it over Run when
// present.
type ContextRunner interface {
	RunContext(ctx context.Context, p Params) (Result, error)
}

// funcScenario adapts a plain function to the Scenario interface.
type funcScenario struct {
	name, desc string
	defaults   Params
	run        func(Params) (Result, error)
}

func (s funcScenario) Name() string                 { return s.name }
func (s funcScenario) Description() string          { return s.desc }
func (s funcScenario) Defaults() Params             { return s.defaults }
func (s funcScenario) Run(p Params) (Result, error) { return s.run(p) }

// NewScenario builds a Scenario from a function.
func NewScenario(name, desc string, defaults Params, run func(Params) (Result, error)) Scenario {
	return funcScenario{name: name, desc: desc, defaults: defaults, run: run}
}

// ctxFuncScenario adapts a context-aware function to Scenario and
// ContextRunner.
type ctxFuncScenario struct {
	name, desc string
	defaults   Params
	run        func(context.Context, Params) (Result, error)
}

func (s ctxFuncScenario) Name() string        { return s.name }
func (s ctxFuncScenario) Description() string { return s.desc }
func (s ctxFuncScenario) Defaults() Params    { return s.defaults }
func (s ctxFuncScenario) Run(p Params) (Result, error) {
	return s.run(context.Background(), p)
}
func (s ctxFuncScenario) RunContext(ctx context.Context, p Params) (Result, error) {
	return s.run(ctx, p)
}

// NewContextScenario builds a cancellable Scenario from a context-aware
// function.
func NewContextScenario(name, desc string, defaults Params, run func(context.Context, Params) (Result, error)) Scenario {
	return ctxFuncScenario{name: name, desc: desc, defaults: defaults, run: run}
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

// RunContext looks the scenario up, applies its defaults to p, executes it,
// and stamps the result with the scenario name and effective parameters.
// Cancellation is cooperative: a scenario implementing ContextRunner
// observes ctx inside its own loops, any other scenario is gated by a
// cancellation check before it starts.
func (r *Registry) RunContext(ctx context.Context, name string, p Params) (Result, error) {
	s, ok := r.Lookup(name)
	if !ok {
		return Result{}, r.unknown(name)
	}
	p = p.WithDefaults(s.Defaults())
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	res, err := runScenario(ctx, s, p)
	if err != nil {
		return Result{}, err
	}
	res.Scenario = s.Name()
	res.Params = p
	return res, nil
}

// unknown is the error for a name the registry does not hold.
func (r *Registry) unknown(name string) error {
	return fmt.Errorf("engine: unknown scenario %q (have: %s)", name, strings.Join(r.Names(), ", "))
}

// runScenario executes a scenario on fully defaulted params, through
// ContextRunner when it has one.
func runScenario(ctx context.Context, s Scenario, p Params) (Result, error) {
	if cr, ok := s.(ContextRunner); ok {
		return cr.RunContext(ctx, p)
	}
	return s.Run(p)
}

// Info is the serializable description of one registered scenario.
type Info struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Defaults    Params `json:"defaults"`
	// Cancellable reports whether the scenario observes context
	// cancellation inside its own loops (ContextRunner).
	Cancellable bool `json:"cancellable"`
}

// Infos describes every registered scenario, sorted by name.
func (r *Registry) Infos() []Info {
	names := r.Names()
	infos := make([]Info, 0, len(names))
	for _, n := range names {
		s, _ := r.Lookup(n)
		_, cancellable := s.(ContextRunner)
		infos = append(infos, Info{
			Name:        s.Name(),
			Description: s.Description(),
			Defaults:    s.Defaults(),
			Cancellable: cancellable,
		})
	}
	return infos
}

// Default is the package registry holding every built-in scenario.
var Default = NewRegistry()

// RunContext executes a scenario from the default registry with
// cooperative cancellation.
func RunContext(ctx context.Context, name string, p Params) (Result, error) {
	return Default.RunContext(ctx, name, p)
}

// Lookup finds a scenario in the default registry.
func Lookup(name string) (Scenario, bool) { return Default.Lookup(name) }

// Names lists the default registry, sorted.
func Names() []string { return Default.Names() }

// Infos describes every scenario of the default registry, sorted by name.
func Infos() []Info { return Default.Infos() }
