package main

import (
	"math"
	"sort"
)

// Workload names, in the order `-workload all` runs them.
const (
	wlLeakDeep   = "leak-deep"
	wlGridCold   = "grid-cold"
	wlReuseTiers = "reuse-tiers"
	wlServeMix   = "serve-mix"
)

var workloadNames = []string{wlLeakDeep, wlGridCold, wlReuseTiers, wlServeMix}

// metricDef declares one metric the harness emits. The tables below are the
// single source of truth: BENCHMARK.json lists the Gated end-to-end rows and
// every per-layer row (smoke_test.go keeps the two in step), -compare reads
// bounds and directions from here, and README.md explains each row.
type metricDef struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the base median by which the metric may worsen
	// before -compare calls it worse.
	Bound float64
	// Workloads lists the workloads that report the metric (nil = all four).
	// A per-layer metric has exactly one home workload: its traced run
	// measures it, the other three emit zero.
	Workloads []string
	// Moves names the end-to-end metric a per-layer metric should move.
	Moves string
	// Exact marks a count that must repeat exactly between runs of one
	// commit on one seed.
	Exact bool
	// Gated marks the end-to-end metrics every workload reports, which are
	// the ones BENCHMARK.json can carry.
	Gated bool
}

func (d metricDef) reportedBy(workload string) bool {
	if d.Workloads == nil {
		return true
	}
	for _, w := range d.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// The bounds of the four gated rows are what BENCHMARK.json carries, and the
// driver refuses a benchmark whose run-to-run spread exceeds its bound: on a
// shared 2-vCPU host whole runs drift by 10-20 % in wall and user CPU alike
// (README.md has the measurements), so the three time rows sit at the
// contract's ceiling. The workload-specific rows keep tighter bounds; when
// the host cannot resolve them -compare says "unresolved", not "ok".
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "rep_wall_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "cpu_user_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.02, Gated: true},
	{Name: "failed_share", Unit: "share", Better: "lower", Bound: 0},
	{Name: "epochs_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Workloads: []string{wlLeakDeep}},
	{Name: "cells_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Workloads: []string{wlGridCold}},
	{Name: "warm_cells_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Workloads: []string{wlReuseTiers}},
	{Name: "stored_cells_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Workloads: []string{wlReuseTiers}},
	{Name: "resume_ms", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: []string{wlReuseTiers}},
	{Name: "checkpoint_save_ms", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: []string{wlReuseTiers}},
	{Name: "run_hit_ms", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: []string{wlServeMix}},
	{Name: "run_miss_ms", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: []string{wlServeMix}},
	{Name: "sweep_first_byte_ms", Unit: "ms", Better: "lower", Bound: 0.15, Workloads: []string{wlServeMix}},
	{Name: "sweep_last_byte_ms", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: []string{wlServeMix}},
	{Name: "hop_sweep_last_byte_ms", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: []string{wlServeMix}},
}

// layerDef shortens the per-layer table. Per-layer metrics attribute a
// change and are never judged, so Better only says which way is good news:
// down, except for the few rows higherIsBetter lists.
func layerDef(name, unit, home, moves string) metricDef {
	d := metricDef{Name: name, Unit: unit, Better: "lower", Moves: moves}
	if home != "" {
		d.Workloads = []string{home}
	}
	if higherIsBetter[name] {
		d.Better = "higher"
	}
	return d
}

var higherIsBetter = map[string]bool{
	"codec.encode_mb_per_s":        true,
	"store.hits":                   true,
	"warmstart.hit_share":          true,
	"warmstart.epochs_saved_share": true,
	"warmstart.snapshot_hits":      true,
	"server.cells_from_lru":        true,
}

func exactCount(name, home, moves string) metricDef {
	d := layerDef(name, "count", home, moves)
	d.Exact = true
	return d
}

var perLayer = []metricDef{
	layerDef("sim.step_ms", "ms", wlLeakDeep, "epochs_per_s"),
	layerDef("sim.boundary_step_ms", "ms", wlLeakDeep, "epochs_per_s"),
	layerDef("sim.boundary_share", "share", wlLeakDeep, "epochs_per_s"),
	layerDef("sim.new_ms", "ms", wlGridCold, "cells_per_s"),
	layerDef("sim.snapshot_ms", "ms", wlReuseTiers, "warm_cells_per_s"),
	layerDef("sim.snapshot_mb", "MB", wlReuseTiers, "warm_cells_per_s"),
	layerDef("sim.restore_ms", "ms", wlReuseTiers, "warm_cells_per_s"),
	layerDef("sim.adopt_ms", "ms", wlReuseTiers, "resume_ms"),
	exactCount("sim.tree_nodes", wlLeakDeep, "epochs_per_s"),
	exactCount("sim.tree_folded", wlLeakDeep, "epochs_per_s"),
	layerDef("sim.engine_kb", "kB", wlLeakDeep, "epochs_per_s"),

	layerDef("network.deliveries_us", "us", wlLeakDeep, "epochs_per_s"),
	layerDef("network.clone_ms", "ms", wlReuseTiers, "warm_cells_per_s"),
	exactCount("network.msgs_per_epoch", wlLeakDeep, "epochs_per_s"),
	exactCount("network.dropped", wlLeakDeep, "epochs_per_s"),

	layerDef("beacon.boundary_ms", "ms", wlLeakDeep, "epochs_per_s"),
	layerDef("beacon.attestation_data_us", "us", wlLeakDeep, "epochs_per_s"),
	layerDef("beacon.receive_attestation_us", "us", wlLeakDeep, "epochs_per_s"),
	layerDef("beacon.produce_block_us", "us", wlLeakDeep, "epochs_per_s"),
	layerDef("beacon.clone_ms", "ms", wlReuseTiers, "warm_cells_per_s"),

	layerDef("forkchoice.head_ns", "ns", wlLeakDeep, "epochs_per_s"),
	layerDef("forkchoice.head_after_votes_us", "us", wlLeakDeep, "epochs_per_s"),
	layerDef("forkchoice.rebuild_ms", "ms", wlLeakDeep, "epochs_per_s"),
	layerDef("forkchoice.update_stakes_ms", "ms", wlLeakDeep, "epochs_per_s"),
	layerDef("forkchoice.nodes", "count", wlLeakDeep, "epochs_per_s"),
	layerDef("forkchoice.clone_ms", "ms", wlReuseTiers, "warm_cells_per_s"),

	layerDef("attestation.add_us", "us", wlLeakDeep, "epochs_per_s"),
	layerDef("attestation.link_tally_us", "us", wlLeakDeep, "epochs_per_s"),
	layerDef("attestation.prune_us", "us", wlLeakDeep, "epochs_per_s"),
	layerDef("attestation.clone_ms", "ms", wlReuseTiers, "warm_cells_per_s"),

	layerDef("ffg.process_tally_us", "us", wlLeakDeep, "epochs_per_s"),
	layerDef("incentives.process_epoch_ms", "ms", wlLeakDeep, "epochs_per_s"),
	layerDef("validator.total_stake_us", "us", wlLeakDeep, "epochs_per_s"),
	layerDef("validator.clone_ms", "ms", wlReuseTiers, "warm_cells_per_s"),

	layerDef("blocktree.compact_ms", "ms", wlLeakDeep, "epochs_per_s"),
	layerDef("blocktree.add_us", "us", wlLeakDeep, "epochs_per_s"),
	layerDef("blocktree.clone_ms", "ms", wlReuseTiers, "warm_cells_per_s"),
	layerDef("blocktree.folded", "count", wlLeakDeep, "epochs_per_s"),

	layerDef("codec.encode_ms", "ms", wlReuseTiers, "checkpoint_save_ms"),
	layerDef("codec.decode_ms", "ms", wlReuseTiers, "resume_ms"),
	layerDef("codec.frame_mb", "MB", wlReuseTiers, "checkpoint_save_ms"),
	layerDef("codec.encode_mb_per_s", "MB/s", wlReuseTiers, "checkpoint_save_ms"),

	layerDef("store.open_ms", "ms", wlReuseTiers, "stored_cells_per_s"),
	layerDef("store.get_us", "us", wlReuseTiers, "stored_cells_per_s"),
	layerDef("store.put_ms", "ms", wlReuseTiers, "stored_cells_per_s"),
	layerDef("store.ckpt_save_ms", "ms", wlReuseTiers, "checkpoint_save_ms"),
	layerDef("store.ckpt_load_ms", "ms", wlReuseTiers, "resume_ms"),
	layerDef("store.hits", "count", wlReuseTiers, "stored_cells_per_s"),
	layerDef("store.misses", "count", wlReuseTiers, "stored_cells_per_s"),
	exactCount("store.corrupt", wlReuseTiers, "stored_cells_per_s"),
	layerDef("store.bytes", "B", wlReuseTiers, "stored_cells_per_s"),

	layerDef("engine.cell_ms", "ms", wlGridCold, "cells_per_s"),
	layerDef("engine.sweep_overhead_ms", "ms", wlGridCold, "cells_per_s"),
	layerDef("engine.runto_ms_per_epoch", "ms", wlReuseTiers, "resume_ms"),
	layerDef("engine.resume_from_ms", "ms", wlReuseTiers, "resume_ms"),
	layerDef("engine.encode_prefix_ms", "ms", wlReuseTiers, "checkpoint_save_ms"),
	layerDef("engine.decode_prefix_ms", "ms", wlReuseTiers, "resume_ms"),
	layerDef("engine.parse_grid_us", "us", wlServeMix, "run_hit_ms"),
	layerDef("engine.cell_key_us", "us", wlServeMix, "run_hit_ms"),
	layerDef("engine.params_decode_us", "us", wlServeMix, "run_hit_ms"),

	layerDef("warmstart.hit_share", "share", wlReuseTiers, "warm_cells_per_s"),
	layerDef("warmstart.epochs_saved_share", "share", wlReuseTiers, "warm_cells_per_s"),
	exactCount("warmstart.prefix_nodes", wlReuseTiers, "warm_cells_per_s"),
	layerDef("warmstart.snapshot_hits", "count", wlReuseTiers, "warm_cells_per_s"),
	layerDef("warmstart.rebuilt", "count", wlReuseTiers, "warm_cells_per_s"),
	layerDef("warmstart.peak_resident_mb", "MB", wlReuseTiers, "warm_cells_per_s"),
	layerDef("warmstart.first_cell_ms", "ms", wlReuseTiers, "sweep_first_byte_ms"),

	layerDef("server.handler_hit_us", "us", wlServeMix, "run_hit_ms"),
	layerDef("server.handler_miss_ms", "ms", wlServeMix, "run_miss_ms"),
	layerDef("server.http_overhead_us", "us", wlServeMix, "run_hit_ms"),
	layerDef("server.cells_computed", "count", wlServeMix, "run_miss_ms"),
	layerDef("server.cells_from_lru", "count", wlServeMix, "run_hit_ms"),
	layerDef("server.cells_from_store", "count", wlServeMix, "run_hit_ms"),
	layerDef("server.rejected", "count", wlServeMix, "run_miss_ms"),
	layerDef("server.coord_cells_remote", "count", wlServeMix, "hop_sweep_last_byte_ms"),
	layerDef("server.coord_requeued", "count", wlServeMix, "hop_sweep_last_byte_ms"),

	layerDef("gasperleak.run_overhead_ms", "ms", wlLeakDeep, "epochs_per_s"),

	// Host diagnostics and the tracer's own cost: every traced run measures
	// its own.
	layerDef("host.sys_s", "s", "", ""),
	layerDef("host.minflt", "count", "", ""),
	layerDef("host.peak_rss_mb", "MB", "", ""),
	layerDef("host.gc_count", "count", "", ""),
	layerDef("host.gc_pause_ms", "ms", "", ""),
	layerDef("host.nproc", "count", "", ""),
	// go1.24.0 reads 12400: a metric value is a number.
	layerDef("host.go_version", "count", "", ""),
	layerDef("trace.overhead_share", "share", "", ""),
}

// measure is one reported value. Timing metrics carry the spread of the
// samples behind the gated median; counts and totals carry only Value.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	// Tail is the highest percentile with at least ten samples beyond it,
	// TailPct which percentile that is; both absent below twenty samples.
	Tail    float64 `json:"tail,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
	N       int     `json:"n,omitempty"`
}

// samples collects one op class's latencies, in seconds.
type samples []float64

// quantile interpolates linearly between order statistics of a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s samples) median() float64 { return quantile(s.sorted(), 0.5) }

// stat summarizes the samples in the given unit (scale converts seconds).
func (s samples) stat(unit string, scale float64) measure {
	v := s.sorted()
	m := measure{Unit: unit, N: len(v)}
	if len(v) == 0 {
		return m
	}
	m.Value = quantile(v, 0.5) * scale
	m.Q1 = quantile(v, 0.25) * scale
	m.Q3 = quantile(v, 0.75) * scale
	if len(v) >= 20 {
		m.Tail = v[len(v)-11] * scale
		m.TailPct = 100 * float64(len(v)-10) / float64(len(v))
	}
	return m
}

func (s samples) ms() measure { return s.stat("ms", 1e3) }

// perSecond turns a median wall time into a throughput of `units` per op.
// Quartiles swap: the slow quartile of the wall is the low one of the rate.
func (s samples) perSecond(units float64) measure {
	w := s.stat("1/s", 1)
	if w.Value == 0 {
		return w
	}
	return measure{Value: units / w.Value, Unit: "1/s", Q1: units / w.Q3, Q3: units / w.Q1, N: w.N}
}
