// Command leaksim is the reproduction's one client command. It runs
// scenarios from the engine registry (the paper's five scenarios at full
// paper scale, the generic engines, and parallel parameter sweeps over any
// of them) and prints the paper's Tables 1-3 and the data behind its
// figures.
//
// Usage:
//
//	leaksim -list                             # registered scenarios
//	leaksim -scenario all                     # Table 1 (all five scenarios; = -table 1)
//	leaksim -scenario 5.2.1 -p0 0.5 -beta0 0.2
//	leaksim -scenario 5.3 -beta0 0.33 -seed 1 -json
//	leaksim -scenario leaksim -sweep "p0=0.3:0.7:0.1; beta0=0.1,0.2; mode=double,semi" -workers 8
//	leaksim -scenario bounce-mc -sweep "beta0=0.32,0.33; seed=1:5:1" -csv
//	leaksim -scenario sim/drops -sweep "rate=0:0.4:0.1" -n 1000      # full protocol, view-cohort kernel
//	leaksim -scenario sim/gst -sweep "gst=4:20:4" -n 1000 -horizon 30
//	leaksim -scenario sim/gst -sweep "horizon=8:22:2" -n 10000 -gst 40 -warm  # shared-prefix warm start
//	leaksim -scenario sim/bounce -p0 0.7 -n 10000                    # paper-scale bouncing attack
//	leaksim -scenario sim/leak -n 10000 -horizon 5000 -store .cache  # durable: Ctrl-C + re-run resumes
//	leaksim -table 0                          # the paper's Tables 1-3 (-table 2: Table 2 only)
//	leaksim -table 1 -json                    # Table 1's engine results as JSON
//	leaksim -fig 2                            # Figure 2 as CSV (-json: as JSON)
//	leaksim -fig 10mc -beta0 0.33 -n 500 -runs 5   # Figure 10: Monte-Carlo vs Equation 24
//	leaksim -fig all -out data/               # every figure as data/figID.csv
//	leaksim -scenario analytic/bounce -sweep "beta0=0.1,0.2,0.3,0.3333"  # Equation 14 window per beta0
//	leaksim -scenario bounce-mc -sweep "seed=1:5:1" -beta0 0.333 -horizon 4000  # bouncing MC at one epoch
//	leaksim -scenario sim/gst -sweep "horizon=8:22:1" -n 10000 -store .cache -memprofile mem.pprof  # profile a stored re-serve
//
// Sweeps run through the v2 client API: Ctrl-C cancels cooperatively, and
// the same grids are network-addressable via the serve command. With a
// -store, interrupted long-horizon cells flush a final checkpoint and the
// printed resume command picks them up mid-run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/gasperleak"
)

// options collects the CLI flags.
type options struct {
	scenario  string
	list      bool
	sweep     string
	workers   int
	warm      bool
	store     string
	ckptEvery int
	jsonOut   bool
	csvOut    bool
	verbose   bool
	tables    bool // -table was given
	table     int
	fig       string
	out       string
	runs      int
	params    gasperleak.ScenarioParams

	cpuprofile, memprofile string
}

// parse declares leaksim's flags and parses args into options. Errors and
// usage go to errOut.
func parse(args []string, errOut io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("leaksim", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&o.scenario, "scenario", "all", "scenario name from the registry (see -list), or all for Table 1")
	fs.BoolVar(&o.list, "list", false, "list registered scenarios and exit")
	fs.StringVar(&o.sweep, "sweep", "", `parameter grid, e.g. "p0=0.3:0.7:0.1; beta0=0.1,0.2; mode=double,semi; seed=1:3:1"`)
	fs.IntVar(&o.workers, "workers", 0, "sweep worker pool size (0 = all CPUs)")
	fs.BoolVar(&o.warm, "warm", false, "warm-start sweeps from shared simulation prefixes (bit-identical results; scenarios without prefix support run cold)")
	fs.StringVar(&o.store, "store", "", "persistent result store directory: finished cells are reused across runs, and long-horizon simulation cells checkpoint mid-run so an interrupted sweep resumes instead of recomputing")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 0, "mid-cell checkpoint interval in simulated epochs (0 = engine default, negative disables checkpointing; no effect without -store)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit results as JSON (with -table, the engine results behind the tables; with -fig, the figure)")
	fs.BoolVar(&o.csvOut, "csv", false, "emit results as CSV")
	fs.BoolVar(&o.verbose, "v", false, "log execution metadata per cell (throughput, tree/engine retention; not with the tables)")
	fs.IntVar(&o.table, "table", 0, "print the paper's Table N (1, 2, 3; 0 = all three) instead of running a scenario")
	fs.StringVar(&o.fig, "fig", "", "emit a figure's data as CSV instead of running a scenario: "+strings.Join(figureIDs, ", ")+", or all (into -out)")
	fs.StringVar(&o.out, "out", ".", "output directory for -fig all")
	fs.IntVar(&o.runs, "runs", 5, "Monte-Carlo runs for -fig 10mc")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to `FILE` (go tool pprof reads it)")
	fs.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile of the run to `FILE`, sampled every 4 KiB allocated (go tool pprof reads it)")
	fs.Float64Var(&o.params.P0, "p0", 0, "proportion of honest validators on branch A (omit for the scenario default; an explicit -p0 0 means zero)")
	fs.Float64Var(&o.params.Beta0, "beta0", 0, "initial Byzantine stake proportion (omit for the scenario default, 1/3 for -fig 10mc; an explicit -beta0 0 means no Byzantine stake)")
	fs.StringVar(&o.params.Mode, "mode", "", "scenario mode (empty = scenario default)")
	fs.Int64Var(&o.params.Seed, "seed", 0, "random seed for Monte-Carlo scenarios, Table 1 and -fig 10mc (0 = scenario default, 1 for the tables and figures)")
	fs.IntVar(&o.params.N, "n", 0, "validator count (0 = scenario default, 500 honest validators for -fig 10mc)")
	fs.IntVar(&o.params.Horizon, "horizon", 0, "epoch horizon / evaluation epoch (0 = scenario default, epoch 4024 for -fig 9)")
	fs.IntVar(&o.params.Sample, "sample", 0, "trace sampling interval in epochs (0 = no trace)")
	fs.Float64Var(&o.params.Rate, "rate", 0, "link-outage rate for protocol-simulator scenarios (omit for the scenario default; an explicit -rate 0 means rate zero)")
	fs.IntVar(&o.params.GST, "gst", 0, "partition-heal epoch for protocol-simulator scenarios (omit for the scenario default; an explicit -gst 0 means heal at once)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("unexpected argument %q (quote a -sweep spec that holds spaces)", fs.Arg(0))
		fmt.Fprintln(errOut, err)
		fs.Usage()
		return o, err
	}
	for i, v := range []float64{o.params.P0, o.params.Beta0, o.params.Rate} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			err := fmt.Errorf("-%s %v: want a finite number", [...]string{"p0", "beta0", "rate"}[i], v)
			fmt.Fprintln(errOut, err)
			return o, err
		}
	}
	// A flag whose zero is a meaningful value (-p0, -beta0, -rate, -gst)
	// is explicit when the user passed it: -rate 0 pins the lossless
	// baseline instead of deferring to the scenario default. The others
	// keep their documented "0 = scenario default" contract.
	fs.Visit(func(f *flag.Flag) {
		o.params = o.params.MarkFlag(f.Name)
		o.tables = o.tables || f.Name == "table"
	})
	return o, nil
}

func main() {
	o, err := parse(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	// Ctrl-C cancels in-flight sweeps cooperatively: finished cells keep
	// their results, unfinished ones record the context error. With a
	// -store, each interrupted cell also saves a checkpoint at the epoch
	// it had reached on the way out, so the re-run below resumes where it
	// stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = run(ctx, os.Stdout, o)
	if ctx.Err() != nil && o.store != "" && o.ckptEvery >= 0 {
		fmt.Fprintf(os.Stderr, "leaksim: interrupted; finished cells and mid-cell checkpoints are saved in %s\n", o.store)
		fmt.Fprintf(os.Stderr, "leaksim: resume with: %s\n", strings.Join(os.Args, " "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "leaksim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, w io.Writer, o options) (err error) {
	stop, err := profile(o)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()
	copts := []gasperleak.ClientOption{gasperleak.WithWorkers(o.workers)}
	if o.warm {
		copts = append(copts, gasperleak.WithWarmStart())
	}
	if o.store != "" {
		copts = append(copts, gasperleak.WithResultStore(o.store))
		if o.ckptEvery >= 0 {
			copts = append(copts, gasperleak.WithCheckpoints(o.ckptEvery))
		}
	}
	c, err := gasperleak.NewClient(copts...)
	if err != nil {
		return err
	}
	defer c.Close()
	switch {
	case o.list:
		return list(w, c)
	case o.tables:
		return runTables(ctx, w, c, o)
	case o.fig != "":
		return runFigures(ctx, w, c, o)
	case o.sweep != "":
		return runSweep(ctx, w, c, o)
	case o.scenario == "all":
		o.table = 1
		return runTables(ctx, w, c, o)
	}
	res, err := c.Run(ctx, o.scenario, o.params)
	if err != nil {
		return err
	}
	return emit(w, o, res.Scenario+": "+descriptionOf(c, res.Scenario), []gasperleak.ScenarioResult{res})
}

// profile starts the profiles -cpuprofile and -memprofile ask for and
// returns the function that writes them out.
func profile(o options) (stop func() error, err error) {
	if o.memprofile != "" {
		runtime.MemProfileRate = 4096
	}
	var cpu *os.File
	if o.cpuprofile != "" {
		if cpu, err = os.Create(o.cpuprofile); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() (err error) {
		if cpu != nil {
			pprof.StopCPUProfile()
			err = cpu.Close()
		}
		if o.memprofile != "" && err == nil {
			runtime.GC() // the profile holds the allocations of completed cycles
			err = writeFile(o.memprofile, func(w io.Writer) error { return pprof.Lookup("allocs").WriteTo(w, 0) })
		}
		return err
	}, nil
}

// writeFile creates the file at path and writes it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// list prints the registry: every scenario with its description.
func list(w io.Writer, c *gasperleak.Client) error {
	for _, info := range c.Scenarios() {
		if _, err := fmt.Fprintf(w, "%-20s %s\n", info.Name, info.Description); err != nil {
			return err
		}
	}
	return nil
}

// runSweep expands the -sweep grid for -scenario and fans it out.
func runSweep(ctx context.Context, w io.Writer, c *gasperleak.Client, o options) error {
	if o.scenario == "all" {
		return fmt.Errorf("-sweep needs a single scenario (see -list), not -scenario all")
	}
	if _, ok := c.Lookup(o.scenario); !ok {
		return fmt.Errorf("unknown scenario %q (see -list)", o.scenario)
	}
	grid, err := gasperleak.ParseGrid(o.scenario, o.sweep)
	if err != nil {
		return err
	}
	// Dimensions the spec leaves out fall back to the plain flags, so
	// "-sweep beta0=... -horizon 1000" pins the horizon of every cell.
	grid = grid.FillFrom(o.params)
	start := time.Now()
	results := c.SweepGrid(ctx, grid)
	wall := time.Since(start)
	// Individual cell failures are recorded in the error column so a
	// partial sweep still renders, but a sweep with no surviving cell is
	// a failed run.
	failed := 0
	for _, r := range results {
		if r.Err != "" {
			failed++
		}
	}
	if len(results) > 0 && failed == len(results) {
		return fmt.Errorf("every sweep cell failed: %w", gasperleak.SweepFirstError(results))
	}
	title := fmt.Sprintf("sweep %s: %s (%d cells)", o.scenario, o.sweep, len(results))
	if err := emit(w, o, title, results); err != nil {
		return err
	}
	if !o.jsonOut && !o.csvOut {
		if line := gasperleak.SweepThroughput(results, wall); line != "" {
			if _, err := fmt.Fprintf(w, "# %s\n", line); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweep runs cells that must all succeed.
func sweep(ctx context.Context, c *gasperleak.Client, cells []gasperleak.SweepCell) ([]gasperleak.ScenarioResult, error) {
	results := c.Sweep(ctx, cells)
	return results, gasperleak.SweepFirstError(results)
}

// table1Seed is the seed of Table 1's Monte-Carlo row: -seed, or 1.
func table1Seed(o options) int64 {
	if o.params.Seed == 0 {
		return 1
	}
	return o.params.Seed
}

// runTables prints the paper's Table -table (0 = all three), each comparing
// the paper's values with the analytic models and the exact simulation;
// with -json, the engine results behind them, in table order.
func runTables(ctx context.Context, w io.Writer, c *gasperleak.Client, o options) error {
	if o.table < 0 || o.table > 3 {
		return fmt.Errorf("unknown table %d (want 1, 2 or 3; 0 = all)", o.table)
	}
	if o.csvOut || o.verbose {
		return fmt.Errorf("the tables have no CSV form and no per-cell log (-json emits the engine results behind them, meta included)")
	}
	tables := []int{1, 2, 3}
	if o.table != 0 {
		tables = []int{o.table}
	}
	if o.jsonOut {
		var cells []gasperleak.SweepCell
		for _, n := range tables {
			if n == 1 {
				cells = append(cells, gasperleak.Table1Cells(table1Seed(o))...)
			} else {
				cells = append(cells, gasperleak.TableCells(n)...)
			}
		}
		results, err := sweep(ctx, c, cells)
		if err != nil {
			return err
		}
		return gasperleak.WriteSweepJSON(w, results)
	}
	for _, n := range tables {
		t, err := c.RenderTable(ctx, n, table1Seed(o))
		if err != nil {
			return err
		}
		if err := t.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// figureIDs lists the figures -fig emits, in the order of -fig all.
var figureIDs = []string{"2", "3", "3sim", "6", "7", "7sim", "9", "10", "10mc"}

// runFigures writes figure -fig to w, as CSV or with -json as JSON; -fig
// all writes every figure into -out as figID.csv (or .json) and names each
// file it wrote on w.
func runFigures(ctx context.Context, w io.Writer, c *gasperleak.Client, o options) error {
	ext, write := ".csv", (*gasperleak.Figure).WriteCSV
	if o.jsonOut {
		ext, write = ".json", (*gasperleak.Figure).WriteJSON
	}
	p := o.params.WithDefaults(gasperleak.ScenarioParams{Beta0: 1.0 / 3.0, N: 500, Seed: 1, Horizon: 4024})
	if o.fig != "all" {
		f, err := figure(ctx, c, o.fig, p, o.runs)
		if err != nil {
			return err
		}
		return write(f, w)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	for _, id := range figureIDs {
		f, err := figure(ctx, c, id, p, o.runs)
		if err != nil {
			return err
		}
		path := filepath.Join(o.out, "fig"+id+ext)
		if err := writeFile(path, func(w io.Writer) error { return write(f, w) }); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, "wrote", path); err != nil {
			return err
		}
	}
	return nil
}

// figure builds the figure with the given id. Figure 9 is drawn at epoch
// p.Horizon; Figure 10's Monte-Carlo overlay averages runs trajectories of
// p.N honest validators at p.Beta0 from seed p.Seed.
func figure(ctx context.Context, c *gasperleak.Client, id string, p gasperleak.ScenarioParams, runs int) (*gasperleak.Figure, error) {
	switch id {
	case "2":
		return gasperleak.Figure2(), nil
	case "3":
		return gasperleak.Figure3(), nil
	case "3sim":
		return c.Figure3Sim(ctx, 10)
	case "6":
		return gasperleak.Figure6()
	case "7":
		return gasperleak.Figure7(), nil
	case "7sim":
		return c.Figure7Sim(ctx, 17)
	case "9":
		return gasperleak.Figure9(float64(p.Horizon)), nil
	case "10":
		return gasperleak.Figure10(), nil
	case "10mc":
		return c.Figure10MonteCarlo(ctx, p.Beta0, p.N, runs, p.Seed)
	}
	return nil, fmt.Errorf("unknown figure %q (want %s, or all)", id, strings.Join(figureIDs, ", "))
}

// emit renders results in the selected format: JSON, CSV, or ASCII. Only
// JSON carries sampled curves; the other modes say so instead of dropping
// them silently.
func emit(w io.Writer, o options, title string, results []gasperleak.ScenarioResult) error {
	if o.jsonOut {
		return gasperleak.WriteSweepJSON(w, results)
	}
	var err error
	if o.csvOut {
		err = gasperleak.WriteSweepCSV(w, title, results)
	} else {
		err = gasperleak.RenderSweep(title, results).Render(w)
	}
	if err != nil {
		return err
	}
	for _, r := range results {
		if len(r.Curve) > 0 {
			_, err = fmt.Fprintf(w, "# %d cells carry a sampled %s curve; use -json to export it\n",
				curveCount(results), r.CurveName)
			break
		}
	}
	if err == nil && o.verbose {
		err = emitVerbose(w, results)
	}
	return err
}

// emitVerbose logs per-cell execution metadata: sustained simulation
// throughput plus the retention statistics (block-tree node/segment/folded
// counts and byte footprints) that make the memory half of the leak-depth
// story visible, and the epochs stepped a lane per partition at once.
func emitVerbose(w io.Writer, results []gasperleak.ScenarioResult) error {
	for _, r := range results {
		m := r.Meta
		if m == nil {
			continue
		}
		line := fmt.Sprintf("# %s %s:", r.Scenario, r.Params)
		if m.EpochsPerSec != 0 {
			line += fmt.Sprintf(" %.1f epochs/sec;", m.EpochsPerSec)
		}
		if s := m.Sim; s != nil {
			line += fmt.Sprintf(" trees %d nodes (%d skip segments, %d blocks folded, %d KiB); oracle %d nodes; engines %d KiB; lane epochs %d",
				s.TreeNodes, s.TreeSegments, s.TreeFolded, s.TreeBytes/1024, s.OracleNodes, s.EngineBytes/1024, s.LaneEpochs)
		}
		if ck := m.Checkpoint; ck != nil {
			if ck.Resumed {
				line += fmt.Sprintf("; checkpoint resume @%d (+%d epochs saved, %d written)", ck.ResumeEpoch, ck.EpochsSaved, ck.Written)
			} else {
				line += fmt.Sprintf("; checkpoints written %d", ck.Written)
			}
		}
		if wm := m.Warm; wm != nil {
			if wm.Hit {
				line += fmt.Sprintf("; warm hit @%d (+%d epochs saved)", wm.BranchEpoch, wm.EpochsSaved)
			} else {
				line += "; warm miss (ran cold)"
			}
			line += fmt.Sprintf(" [tree %d nodes, %d hits, peak %d KiB]",
				wm.PrefixNodes, wm.SnapshotHits, wm.PeakResidentBytes/1024)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	sp := gasperleak.SpareSimulations()
	_, err := fmt.Fprintf(w, "# spare simulations: %d idle; genesis starts: %d reset a spare, %d built anew\n", sp.Idle, sp.Reset, sp.Built)
	return err
}

func curveCount(results []gasperleak.ScenarioResult) int {
	n := 0
	for _, r := range results {
		if len(r.Curve) > 0 {
			n++
		}
	}
	return n
}

func descriptionOf(c *gasperleak.Client, name string) string {
	if s, ok := c.Lookup(name); ok {
		return s.Description()
	}
	return ""
}
