package main

import (
	"math"

	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/types"
)

// refSeconds is the -seconds value the repetition counts below are sized
// for on the reference host (2 shared vCPUs). Other values scale the counts
// proportionally, so the work of a run is always a fixed count, never a
// deadline: cpu_user_s and alloc_mb compare across commits.
const refSeconds = 20

// setupRounds is how often a run builds its fixtures; setup_s is the median.
const setupRounds = 3

// scale sizes every workload. fullScale is the benchmark; toyScale keeps the
// same code paths alive under `go test` in a few seconds.
type scale struct {
	Name string
	// N is the validator count of the kernel cells (leak, grid, resume).
	N int
	// LeakHorizon is the depth of the leak-deep cell. Throughput is flat
	// from the first compaction (epoch ~40) to the paper's conflict epoch
	// (~4,700), so the run stops where it is already representative.
	LeakHorizon int
	// ResumeN/ResumeHorizon/ResumeAt: the reuse-tiers leak cell and the epoch
	// its durable checkpoint is planted at. The cell is a quarter of N: a
	// 10k-validator frame is 25 MB, and writing two of those per repetition
	// made first-touch page-cache faults the largest and least repeatable
	// term of the repetition (README.md); every per-byte cost is still there.
	ResumeN, ResumeHorizon, ResumeAt int
	// The sweep grid: sim/gst over GridGSTs x GridHorizons. No gst heals
	// within a horizon, so all cells share one partitioned prefix.
	GridGSTs, GridHorizons []int
	// ServeN is the validator count of the /sweep cells of serve-mix, small
	// so that HTTP, JSON and the coordinator hop stay visible beside the
	// kernel.
	ServeN int
	// Per-repetition op counts.
	Primed, Hits, Misses, StoredPasses int
	// Reps is the timed repetition count per workload at refSeconds.
	Reps map[string]int
	// ProbeEpochs are the epochs at which the traced leak-deep run probes
	// cloned layer objects.
	ProbeEpochs []int
	// ProbeCalls repeats sub-microsecond probes to get above timer noise.
	ProbeCalls int
}

func intRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

var fullScale = scale{
	Name:          "full",
	N:             10000,
	LeakHorizon:   200,
	ResumeN:       2500,
	ResumeHorizon: 60,
	ResumeAt:      50,
	GridGSTs:      []int{30, 40},
	GridHorizons:  intRange(8, 22),
	ServeN:        1000,
	Primed:        64,
	Hits:          2500,
	Misses:        150,
	StoredPasses:  100,
	Reps:          map[string]int{wlLeakDeep: 7, wlGridCold: 3, wlReuseTiers: 14, wlServeMix: 12},
	ProbeEpochs:   []int{25, 50, 100, 150, 190},
	ProbeCalls:    1000,
}

var toyScale = scale{
	Name:          "toy",
	N:             64,
	LeakHorizon:   10,
	ResumeN:       64,
	ResumeHorizon: 10,
	ResumeAt:      8,
	GridGSTs:      []int{8, 9},
	GridHorizons:  intRange(3, 6),
	ServeN:        64,
	Primed:        8,
	Hits:          24,
	Misses:        6,
	StoredPasses:  2,
	Reps:          map[string]int{wlLeakDeep: 2, wlGridCold: 2, wlReuseTiers: 2, wlServeMix: 2},
	ProbeEpochs:   []int{4, 8},
	ProbeCalls:    20,
}

// reps scales a workload's repetition count with -seconds.
func (s scale) reps(workload string, seconds int) int {
	n := int(math.Round(float64(s.Reps[workload]) * float64(seconds) / refSeconds))
	if n < 2 {
		n = 2
	}
	return n
}

// leakCell is the sim/leak cell: p0 = 0.5 lasting partition at full spec,
// the paper's Table 1 Scenario 5.1.
func leakCell(n, horizon int, seed int64) engine.Cell {
	return engine.Cell{Scenario: engine.ScenarioSimLeak, Params: engine.Params{P0: 0.5, N: n, Horizon: horizon, Seed: seed}}
}

// gridCells expands the sweep grid. The seed is written onto each cell
// directly: listing it as a grid dimension would derive a different seed per
// horizon (engine.DeriveSeed) and no two cells would share a prefix.
func gridCells(sc scale, n int, seed int64) []engine.Cell {
	cells := engine.Grid{
		Scenario: engine.ScenarioSimGST,
		P0:       []float64{0.5},
		GSTs:     sc.GridGSTs,
		Horizons: sc.GridHorizons,
		N:        n,
	}.Cells()
	for i := range cells {
		cells[i].Params.Seed = seed
		cells[i].Params = cells[i].Params.MarkExplicit(engine.FieldSeed)
	}
	return cells
}

func gridEpochs(cells []engine.Cell) int {
	total := 0
	for _, c := range cells {
		total += c.Params.Horizon
	}
	return total
}

// mustKey is the canonical cell key every tier (LRU, store, checkpoints)
// and the checker use.
func mustKey(c engine.Cell) string {
	key, ok := engine.CanonicalCellKey(nil, c)
	if !ok {
		panic("bench: unknown scenario " + c.Scenario)
	}
	return key
}

// splitHalves is the p0-weighted two-way partition of both sim scenarios.
func splitHalves(n int, p0 float64) func(types.ValidatorIndex) int {
	nA := int(math.Round(float64(n) * p0))
	return func(v types.ValidatorIndex) int {
		if int(v) < nA {
			return 0
		}
		return 1
	}
}

// leakSimConfig mirrors the population engine's sim/leak builds (its
// constructor is unexported). The traced leak-deep run proves the mirror
// exact by byte-comparing snapshot frames with engine's RunTo.
func leakSimConfig(p engine.Params) sim.Config {
	return sim.Config{
		Validators:  p.N,
		Spec:        types.DefaultSpec(),
		GST:         network.Never,
		Delay:       1,
		Seed:        p.Seed,
		PartitionOf: splitHalves(p.N, p.P0),
	}
}

// gstSimConfig mirrors sim/gst's population; it is only constructed, to
// time sim.New at grid scale.
func gstSimConfig(p engine.Params) sim.Config {
	spec := types.CompressedSpec(1 << 16)
	return sim.Config{
		Validators:  p.N,
		Spec:        spec,
		GST:         types.Slot(uint64(p.GST) * spec.SlotsPerEpoch),
		Delay:       1,
		Seed:        p.Seed,
		PartitionOf: splitHalves(p.N, p.P0),
	}
}

// checkpointable resolves a scenario to the durable-checkpoint interface and
// its defaulted params.
func checkpointable(c engine.Cell) (engine.CheckpointableScenario, engine.Params) {
	sc, ok := engine.Lookup(c.Scenario)
	if !ok {
		panic("bench: unknown scenario " + c.Scenario)
	}
	return sc.(engine.CheckpointableScenario), c.Params.WithDefaults(sc.Defaults())
}
