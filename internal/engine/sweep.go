package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"reflect"
	"strconv"
	"strings"
)

// Cell is one sweep unit: a named scenario plus its parameters.
type Cell struct {
	Scenario string `json:"scenario"`
	Params   Params `json:"params"`
}

// Grid is a rectangular parameter sweep for one scenario: the cross
// product of the listed dimensions (p0 x beta0 x mode x seed x horizon x
// rate x gst). An empty dimension contributes a single zero value, which
// Registry.RunContext resolves to the scenario's default.
type Grid struct {
	Scenario string
	P0       []float64
	Beta0    []float64
	Modes    []string
	Seeds    []int64
	Horizons []int
	// Rates sweeps the link-outage probability of protocol-simulator
	// scenarios; GSTs sweeps their partition-heal epoch. Cells differing
	// only in rate or gst share their derived seed (common random
	// numbers), which is the right comparison mode for a robustness
	// sweep: every cell faces the same duty schedule.
	Rates []float64
	GSTs  []int
	// N and Sample apply uniformly to every cell.
	N      int
	Sample int
}

// Cells expands the grid in deterministic order (p0 outermost, horizon
// innermost). When the seed dimension is listed, each cell's seed is
// derived from its base seed and its own coordinates (DeriveSeed), so
// stochastic cells are statistically independent across the grid and
// every cell is fully reproducible from its recorded Params alone —
// results are bit-identical regardless of worker count or grid shape.
// Omitting the seed dimension leaves every cell on the scenario's default
// seed instead: cells then share one random stream (common random
// numbers), which is the right comparison mode for deterministic engines
// and for contrasting parameter values under identical noise.
func (g Grid) Cells() []Cell {
	var p Params
	gv, pv := reflect.ValueOf(&g).Elem(), reflect.ValueOf(&p).Elem()
	// axes are the listed dimensions: each cell's Params field and the
	// values it takes, p0 outermost.
	var axes [][2]reflect.Value
	total := 1
	for _, d := range paramDims {
		slot := gv.Field(d.gi)
		if slot.Kind() != reflect.Slice { // a per-grid scalar
			pv.Field(d.pi).Set(slot)
			if !isZero(slot) {
				p.Explicit |= d.field
			}
		} else if slot.Len() > 0 {
			// Dimensions the grid actually lists are explicit: a listed
			// zero (rate=0 lossless baseline, gst=0 immediate heal,
			// beta0=0 honest-only) is the cell's value, not a request for
			// the scenario default.
			p.Explicit |= d.field
			axes = append(axes, [2]reflect.Value{pv.Field(d.pi), slot})
			total *= slot.Len()
		}
	}
	cells := make([]Cell, total)
	for n := range cells {
		for k, rest := len(axes)-1, n; k >= 0; k-- {
			values := axes[k][1]
			axes[k][0].Set(values.Index(rest % values.Len()))
			rest /= values.Len()
		}
		cells[n] = Cell{Scenario: g.Scenario, Params: p}
		if len(g.Seeds) > 0 {
			cells[n].Params.Seed = DeriveSeed(p.Seed, p.P0, p.Beta0, p.Mode, p.Horizon)
		}
	}
	return cells
}

// FillFrom pins any unspecified grid dimension (and the uniform N/Sample
// knobs) from the given params, so CLI flags can cover dimensions a sweep
// spec leaves out. A param pins its dimension when it is non-zero, or when
// it is marked explicit and zero is a value of it (an explicit -rate=0
// pins the lossless baseline); other zero-valued params leave the
// dimension unspecified.
func (g Grid) FillFrom(p Params) Grid {
	gv, pv := reflect.ValueOf(&g).Elem(), reflect.ValueOf(&p).Elem()
	for _, d := range paramDims {
		slot, v := gv.Field(d.gi), pv.Field(d.pi)
		if slot.Kind() != reflect.Slice && isZero(slot) { // a per-grid scalar
			slot.Set(v)
		} else if slot.Kind() == reflect.Slice && slot.Len() == 0 && (!isZero(v) || d.zero && p.IsExplicit(d.field)) {
			slot.Set(reflect.Append(reflect.MakeSlice(slot.Type(), 0, 1), v))
		}
	}
	return g
}

// DeriveSeed maps a base seed and a cell's coordinates to the cell's own
// seed: an FNV-1a hash of the coordinates finalized with a splitmix64
// round. Identical coordinates always derive the identical seed, distinct
// coordinates derive (for all practical purposes) independent streams,
// and the result never depends on grid shape or traversal order.
//
// The derivation DELIBERATELY excludes the post-branch dimensions rate
// and gst: cells that differ only there share the pre-branch RNG stream
// (common random numbers — every cell faces the same duty schedule,
// Grid.Rates doc), and the warm-start scheduler (sched.go) depends on
// exactly that to fan such cells out from one shared snapshot. Adding rate or gst to this hash would
// silently break snapshot reuse — TestDeriveSeedContract pins the
// exclusion. Horizon IS included, so horizon sweeps share prefixes only
// when the grid leaves the seed dimension unlisted.
func DeriveSeed(base int64, p0, beta0 float64, mode string, horizon int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(base))
	put(math.Float64bits(p0))
	put(math.Float64bits(beta0))
	h.Write([]byte(mode))
	put(uint64(horizon))

	// splitmix64 finalizer.
	z := h.Sum64()
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	seed := int64(z &^ (1 << 63)) // keep it positive for readable CLI output
	if seed == 0 {
		seed = 1
	}
	return seed
}

// maxGridCells bounds the cells a parsed sweep spec may expand to: a
// spec of a few dozen bytes can name 10^15 cells, and ParseGrid runs
// before a server admits the request.
const maxGridCells = 1 << 20

// ParseGrid parses a sweep spec into a Grid for the named scenario. The
// spec is semicolon-separated key=value items; values are comma lists or
// lo:hi:step ranges (inclusive). Keys: p0, beta0, mode, seed, horizon,
// rate, gst, n, sample. A spec whose grid would exceed maxGridCells cells
// is refused, naming the dimension that crosses the limit.
//
//	p0=0.2:0.8:0.1; beta0=0.1,0.2,0.25; mode=double,semi; seed=1,2,3
func ParseGrid(scenario, spec string) (Grid, error) {
	g := Grid{Scenario: scenario}
	gv := reflect.ValueOf(&g).Elem()
	var counts [len(paramDims)]int // values listed per dimension
	for item := range strings.SplitSeq(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, value, ok := strings.Cut(item, "=")
		if !ok {
			return Grid{}, fmt.Errorf("engine: sweep item %q is not key=value", item)
		}
		key, value = strings.TrimSpace(key), strings.TrimSpace(value)
		d := dimForKey(key)
		if d == nil {
			return Grid{}, fmt.Errorf("engine: unknown sweep key %q (want %s)", key, gridKeys)
		}
		slot := gv.Field(d.gi)
		// room is how many values this dimension may list: the cell limit
		// over the product of the other dimensions' counts.
		room, at := maxGridCells, bits.TrailingZeros16(uint16(d.field)) // at: d's row
		for i, c := range counts {
			if c > 0 && i != at {
				room /= c
			}
		}
		over := func(n float64) error { return fmt.Errorf("%.0f values take the grid past %d cells", n, maxGridCells) }
		t := slot.Type()
		if t.Kind() != reflect.Slice { // a per-grid scalar: one value
			t, room, over = reflect.SliceOf(t), 1, func(float64) error { return fmt.Errorf("wants a single value, got %q", value) }
		}
		values, err := parseValues(t, value, room, over)
		if err == nil && values.Len() > room {
			err = over(float64(values.Len()))
		}
		if err != nil {
			return Grid{}, fmt.Errorf("engine: sweep dimension %q: %w", key, err)
		}
		if slot.Kind() != reflect.Slice {
			values = values.Index(0)
		} else {
			counts[at] = values.Len()
		}
		slot.Set(values)
	}
	return g, nil
}

// setValue parses one sweep token into dst, reporting whether it parsed.
func setValue(dst reflect.Value, tok string) bool {
	switch dst.Kind() {
	case reflect.String:
		dst.SetString(tok)
		return true
	case reflect.Float64:
		f, err := strconv.ParseFloat(tok, 64)
		dst.SetFloat(f)
		return err == nil
	}
	n, err := strconv.ParseInt(tok, 10, 64)
	dst.SetInt(n)
	return err == nil
}

// finite reports whether f is neither NaN nor an infinity.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// parseValues parses a sweep value into a new slice of type t: a comma
// list, or for numbers an inclusive "lo:hi:step" range. A range is counted
// before it is materialised and refused with over(count) when it holds
// more than room values; integer ranges step without overflow.
func parseValues(t reflect.Type, value string, room int, over func(float64) error) (reflect.Value, error) {
	kind := t.Elem().Kind()
	noun := "integer"
	if kind == reflect.Float64 {
		noun = "number"
	}
	if kind == reflect.String || !strings.Contains(value, ":") {
		n := strings.Count(value, ",") + 1
		out, rest := reflect.MakeSlice(t, n, n), value
		for i := range n {
			var tok string
			tok, rest, _ = strings.Cut(rest, ",")
			// A listed NaN or infinity is no cell: JSON cannot carry it.
			if tok = strings.TrimSpace(tok); !setValue(out.Index(i), tok) || kind == reflect.Float64 && !finite(out.Index(i).Float()) {
				return out, fmt.Errorf("bad %s %q in %q", noun, tok, value)
			}
		}
		return out, nil
	}
	parts := strings.Split(value, ":")
	if len(parts) != 3 {
		return reflect.Value{}, fmt.Errorf("range %q wants lo:hi:step", value)
	}
	bounds := reflect.MakeSlice(t, 3, 3)
	for i, part := range parts {
		if tok := strings.TrimSpace(part); !setValue(bounds.Index(i), tok) {
			return bounds, fmt.Errorf("range %q: bad %s %q", value, noun, tok)
		}
	}
	lo, hi, step := bounds.Index(0), bounds.Index(1), bounds.Index(2)
	if kind == reflect.Float64 {
		lo, hi, step := lo.Float(), hi.Float(), step.Float()
		if !(step > 0 && lo <= hi) {
			return bounds, fmt.Errorf("range %q wants lo <= hi and step > 0", value)
		}
		if math.IsInf(step, 1) { // its first value, lo + 0*step, would be NaN
			return bounds, fmt.Errorf("range %q: bad number %q", value, strings.TrimSpace(parts[2]))
		}
		// The epsilon keeps the endpoint inclusive under float rounding.
		n := math.Floor((hi-lo)/step+1e-9) + 1
		if !(n <= float64(room)) {
			return bounds, over(n)
		}
		out, m := reflect.MakeSlice(t, int(n)+1, int(n)+1), 0
		for ; m <= int(n); m++ {
			// Past MaxFloat64, v rounds to +Inf, which lies beyond hi even
			// where hi+step*1e-9 overflows too.
			v := lo + float64(m)*step
			if v > hi+step*1e-9 || math.IsInf(v, 1) {
				break
			}
			out.Index(m).SetFloat(v)
		}
		return out.Slice(0, m), nil
	}
	if step.Int() <= 0 || hi.Int() < lo.Int() {
		return bounds, fmt.Errorf("range %q wants lo <= hi and step > 0", value)
	}
	// hi-lo fits a uint64; the count is one more, which may not.
	span := (uint64(hi.Int()) - uint64(lo.Int())) / uint64(step.Int())
	if span >= uint64(room) {
		return bounds, over(float64(span) + 1)
	}
	out := reflect.MakeSlice(t, int(span)+1, int(span)+1)
	for k := range out.Len() {
		out.Index(k).SetInt(lo.Int() + int64(uint64(k)*uint64(step.Int())))
	}
	return out, nil
}

// Options configures a sweep, or one cell (RunCell).
type Options struct {
	// Workers bounds concurrency; <= 0 means runtime.NumCPU(). It bounds
	// the cells in flight, not the goroutines a cell uses: a cell may use up
	// to GOMAXPROCS of them, because an epoch in which the honest partitions
	// cannot hear each other — no adversary, no Byzantine validators, before
	// GST, 4,096 validators or more — steps each partition's lane on its own
	// goroutine (sim.Simulation.RunEpochs). GOMAXPROCS=1 keeps every cell on
	// one goroutine, the single-core path, with the same results.
	Workers int
	// Registry resolves scenario names; nil means the default registry.
	Registry *Registry
	// WarmStart, when non-nil, has the scheduler plan a snapshot tree:
	// cells of CheckpointableScenario scenarios that share a parameter
	// prefix fan out from one shared simulated prefix instead of each
	// re-simulating epoch 0. Results are bit-identical to the cold sweep; only wall clock
	// and Result.Meta change.
	WarmStart *WarmStartOptions
	// Checkpoint, when non-nil (with a non-nil Store), runs checkpointable
	// cells under the durable-checkpoint policy: each cell probes the
	// store for its newest valid checkpoint and resumes from it, persists
	// a fresh checkpoint every interval while running, and deletes its
	// checkpoint on completion. It composes with WarmStart — the in-memory
	// snapshot tree amortizes a sweep within a process, durable checkpoints
	// survive process death — tier by tier: every cell that starts at
	// genesis (all of them without WarmStart; with it, lone members of a
	// prefix group and cells that cannot fork) runs under the policy, while
	// a cell resumed from a shared in-memory prefix skips the durable tier
	// (the prefix belongs to its group, and the spine that simulates it is
	// not yet crash-resumable).
	Checkpoint *CheckpointOptions
	// Dispatch, when non-nil, takes over cell execution entirely:
	// SweepStream hands it the cells the result tier did not answer and the
	// remaining options (Dispatch and Results cleared, so a dispatcher may
	// recurse into SweepStream for local execution) and returns its
	// stream. This is the scale-out hook — the serving layer's
	// coordinator routes cells to worker processes
	// through it, a PrefixGroups group at a time when WarmStart is set so
	// that each shared prefix is still simulated once — and it carries the
	// same contract as SweepStream: one Update per cell, payloads
	// bit-identical to a local sweep, the channel closed after the last
	// cell, prompt close after cancellation.
	Dispatch DispatchFunc
	// Results, when non-nil, is the result tier cells are answered from
	// before anything runs: a cell of a known scenario whose canonical key
	// (CanonicalCellKey) it holds is emitted first, stamped Cached, and not
	// computed; every other cell is computed, and each success is put back
	// as its payload. The tier is consulted once, by Prepare or RunCell: it
	// is cleared before Dispatch and the scheduler run.
	Results ResultTier
}

// ResultTier holds finished results under their canonical cell key
// (CellKey) as payloads: the canonical JSON of a success without its Meta
// (EncodePayload). It is the persistent store (internal/store), or a
// server's LRU in front of it, and the bytes it holds are the bytes the
// store writes.
type ResultTier interface {
	// GetPayload returns the payload held under key, one DecodePayload
	// accepts.
	GetPayload(key string) ([]byte, bool)
	// PutPayload holds the payload of a success under key. A failed
	// PutPayload only costs a future recomputation.
	PutPayload(key string, payload []byte) error
}

// DispatchFunc executes a sweep's cells somewhere other than the local
// worker pool (see Options.Dispatch). Update.Index is the cell's position
// in the input slice, exactly as SweepStream reports it.
type DispatchFunc func(ctx context.Context, cells []Cell, opt Options) <-chan Update

// Update is one event of a streaming sweep: a finished cell's result plus
// progress counts.
type Update struct {
	// Index is the cell's position in the input slice.
	Index int `json:"index"`
	// Result is the cell's outcome. A failed or cancelled cell records
	// its error in Result.Err instead of aborting the sweep.
	Result Result `json:"result"`
	// Completed counts the cells finished so far, this one included.
	Completed int `json:"completed"`
	// Total is the sweep's cell count.
	Total int `json:"total"`
}

// Prepared is a sweep whose result tier (Options.Results) has been
// consulted: the cells it held are ready to emit, the rest wait to be
// computed. A server admits Misses cells before it streams. Stream it once,
// or write its Hits and stream only Computed.
type Prepared struct {
	opt   Options
	cells []Cell
	hits  []Hit
	todo  []Cell
	miss  []miss // parallel to todo when there is a tier
}

// miss is where a computed cell goes: its position in the sweep, and the
// canonical key its success is put under ("" for none).
type miss struct {
	index int
	key   string
}

// Prepare looks every cell of a known scenario up in opt.Results. Without a
// tier it builds no key and every cell is a miss.
func Prepare(cells []Cell, opt Options) *Prepared {
	p := &Prepared{opt: opt, cells: cells, todo: cells}
	if opt.Results == nil {
		return p
	}
	p.todo = nil
	for i, c := range cells {
		key, payload, hit := lookup(opt.Registry, opt.Results, c)
		if hit {
			p.hits = append(p.hits, Hit{Index: i, Payload: payload})
			continue
		}
		p.todo = append(p.todo, c)
		p.miss = append(p.miss, miss{i, key})
	}
	return p
}

// Hits lists the cells the result tier answered, in cell order.
func (p *Prepared) Hits() []Hit { return p.hits }

// Misses counts the cells Stream will compute.
func (p *Prepared) Misses() int { return len(p.todo) }

// Stream emits the hits, each decoded and stamped Cached, then computes the
// misses — through opt.Dispatch when set, otherwise through the scheduler
// (sched.go), one bounded worker pool whose jobs each run one cell through
// the cell executor (runCell) — and emits each as it completes, its success
// put to the tier first. Index is the cell's position in the sweep;
// Completed runs 1..Total over hits and misses together.
func (p *Prepared) Stream(ctx context.Context) <-chan Update { return p.stream(ctx, p.hits) }

// Computed is Stream without the hits, for a caller that writes their
// updates from the payloads itself (Hit.AppendUpdate): Completed still
// counts them first.
func (p *Prepared) Computed(ctx context.Context) <-chan Update { return p.stream(ctx, nil) }

func (p *Prepared) stream(ctx context.Context, hits []Hit) <-chan Update {
	if p.opt.Results == nil {
		return p.compute(ctx)
	}
	var updates <-chan Update
	if len(p.todo) > 0 {
		updates = p.compute(ctx)
	}
	out := make(chan Update)
	//gasper:nondet emits the store's hits, then the computed cells as they finish, each tagged with its cell index
	go func() {
		defer close(out)
		total := len(p.hits) + len(p.todo)
		for k, h := range hits {
			res, err := h.Result()
			if err != nil {
				res = FailedCell(p.opt.Registry, p.cells[h.Index], err)
			}
			out <- Update{Index: h.Index, Result: res, Completed: k + 1, Total: total}
		}
		if updates == nil {
			return
		}
		completed := len(p.hits)
		for u := range updates {
			m := p.miss[u.Index]
			save(p.opt.Results, m.key, u.Result)
			completed++
			u.Index, u.Completed, u.Total = m.index, completed, total
			out <- u
		}
	}()
	return out
}

// compute runs the misses with the tier cleared, through Dispatch (itself
// cleared too, so a dispatcher may recurse into SweepStream for local
// execution) or locally.
func (p *Prepared) compute(ctx context.Context) <-chan Update {
	opt := p.opt
	opt.Results = nil
	if d := opt.Dispatch; d != nil {
		opt.Dispatch = nil
		return d(ctx, p.todo, opt)
	}
	return schedule(ctx, p.todo, opt)
}

// SweepStream runs every cell and yields one Update per cell as it
// completes (completion order, not cell order): the prepared sweep
// streamed, Prepare(cells, opt).Stream(ctx). Cancellation is cooperative:
// once ctx is cancelled, cells already running return early (scenarios
// observe ctx inside their loops) and cells not yet started are marked with
// the context error without being computed, so the stream closes promptly.
//
// The caller must drain the channel; it is closed after the last cell.
// Each computed cell's Result carries its wall-clock duration in
// Result.Meta. The result payloads (Meta aside) are bit-identical for any
// worker count, with or without warm start, checkpoints or a result tier.
func SweepStream(ctx context.Context, cells []Cell, opt Options) <-chan Update {
	return Prepare(cells, opt).Stream(ctx)
}

// SweepContext collects a SweepStream into one Result per cell, in cell
// order. Each cell is an independent deterministic computation with its
// own seed, so the output payload is bit-identical for any worker count
// (Result.Meta carries the non-deterministic timing). A failing cell
// records its error in Result.Err instead of aborting the sweep; after
// cancellation SweepContext returns promptly with every unfinished cell's
// Err set to the context error.
func SweepContext(ctx context.Context, cells []Cell, opt Options) []Result {
	results := make([]Result, len(cells))
	for u := range SweepStream(ctx, cells, opt) {
		results[u.Index] = u.Result
	}
	return results
}

// FirstError returns the first per-cell error of a sweep, if any.
func FirstError(results []Result) error {
	for _, r := range results {
		if r.Err != "" {
			return fmt.Errorf("engine: scenario %s (%s): %s", r.Scenario, r.Params, r.Err)
		}
	}
	return nil
}

// BounceMCGrid builds the standard bouncing Monte-Carlo ensemble: one
// bounce-mc cell per run with consecutive base seeds (each cell's actual
// seed derived from its coordinates), sampled every `sample` epochs
// (sample = 0 evaluates the single epoch `horizon` instead).
func BounceMCGrid(p0, beta0 float64, n, runs int, seed int64, sample, horizon int) Grid {
	seeds := make([]int64, runs)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	return Grid{
		Scenario: ScenarioBounceMC,
		P0:       []float64{p0},
		Beta0:    []float64{beta0},
		Seeds:    seeds,
		Horizons: []int{horizon},
		N:        n,
		Sample:   sample,
	}
}

// Table1Cells lists the paper's Table 1: all five scenarios at their
// reference parameters, as sweep cells over the registry.
func Table1Cells(seed int64) []Cell {
	return []Cell{
		{Scenario: ScenarioPartition, Params: Params{P0: 0.5}},
		{Scenario: ScenarioDoubleVote, Params: Params{P0: 0.5, Beta0: 0.2}},
		{Scenario: ScenarioSemiActive, Params: Params{P0: 0.5, Beta0: 0.2}},
		{Scenario: ScenarioDelay, Params: Params{P0: 0.5, Beta0: 0.25}},
		{Scenario: ScenarioBounce, Params: Params{P0: 0.5, Beta0: 0.33, Seed: seed}},
	}
}
