// Command bench is the repository's benchmark: four workloads over the
// Gasper leak simulator, measured end to end through the paths users call
// and, in a separate traced run, layer by layer from the outside in. See
// README.md in this directory.
//
//	go run ./bench -workload leak-deep                 # untraced: end-to-end metrics
//	go run ./bench -workload leak-deep -trace t.json   # traced: per-layer metrics + Chrome trace
//	go run ./bench -workload all -out A.json           # append every workload's run to A.json
//	go run ./bench -compare A.json B.json              # judge B against A
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics BENCHMARK.json names for the kind of run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", goldenSeed, "workload seed; reaches only generated inputs (scenario seeds, miss-request seeds, request order)")
	seconds := fs.Int("seconds", refSeconds, "nominal length of the timed section; scales the fixed repetition counts")
	trace := fs.String("trace", "0", "0 = untraced run (end-to-end metrics); 1 or a file name = traced run (per-layer metrics, Chrome trace written to the file)")
	out := fs.String("out", "", "append each run's full record to this result file (input of -compare)")
	compare := fs.Bool("compare", false, "compare two result files given as arguments: base then candidate")
	scaleName := fs.String("scale", fullScale.Name, "workload sizes: full is the benchmark, toy the smoke test's few-second version")
	updateGolden := fs.Bool("update-golden", false, "record this run's payload digests in bench/golden/ instead of checking them (run from the repository root, golden seed only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two result files: base then candidate")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	if *workload == "" || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: want -workload <name> (or -compare A.json B.json)")
		fs.Usage()
		return 2
	}
	if *updateGolden && *seed != goldenSeed {
		fmt.Fprintf(stderr, "bench: -update-golden records seed %d only\n", goldenSeed)
		return 2
	}

	sizes, ok := map[string]scale{fullScale.Name: fullScale, toyScale.Name: toyScale}[*scaleName]
	if !ok {
		fmt.Fprintf(stderr, "bench: -scale %q, want full or toy\n", *scaleName)
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	cfg := config{
		Seed: *seed, Seconds: *seconds, Scale: sizes,
		Traced: *trace != "0" && *trace != "",
		TmpDir: filepath.Join(".bench_build", "tmp"),
		Log:    stdout,
	}
	if *updateGolden {
		cfg.UpdateGolden, cfg.GoldenDir = true, filepath.Join("bench", "golden")
	}

	// The last line: every run's driver-visible metrics, prefixed with the
	// workload when there is more than one.
	final := struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]measure `json:"metrics"`
	}{Correct: true, Metrics: map[string]measure{}}
	for _, name := range names {
		cfg.Workload = name
		cfg.TraceFile = ""
		if cfg.Traced {
			cfg.TraceFile = *trace
			if *trace == "1" {
				cfg.TraceFile = filepath.Join(".bench_build", "trace-"+name+".json")
			} else if len(names) > 1 {
				cfg.TraceFile = strings.TrimSuffix(*trace, ".json") + "-" + name + ".json"
			}
		}
		kind := "untraced"
		if cfg.Traced {
			kind = "traced"
		}
		fmt.Fprintf(stdout, "== %s  seed %d  seconds %d  %s\n", name, cfg.Seed, cfg.Seconds, kind)
		rec, tr, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		printRecord(stdout, rec, tr)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		final.Correct = final.Correct && rec.Correct
		final.Attempted += rec.Attempted
		final.Failed += rec.Failed
		for _, def := range driverMetrics(cfg.Traced) {
			key := def.Name
			if len(names) > 1 {
				key = name + "/" + def.Name
			}
			m := rec.Metrics[def.Name]
			final.Metrics[key] = measure{Value: m.Value, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1
	}
	return 0
}

// driverMetrics lists what the last stdout line carries: the end-to-end
// metrics every workload reports on an untraced run, every per-layer metric
// on a traced one — the two lists of BENCHMARK.json.
func driverMetrics(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.Gated {
			gated = append(gated, d)
		}
	}
	return gated
}

// printRecord renders one run for a reader: every metric by name with its
// unit and, for timings, the spread behind the median.
func printRecord(w io.Writer, rec *runRecord, tr *tracer) {
	defs := endToEnd
	if rec.Traced {
		defs = perLayer
	}
	for _, def := range defs {
		m, ok := rec.Metrics[def.Name]
		if !ok {
			continue
		}
		if rec.Traced && !def.reportedBy(rec.Workload) {
			continue // another workload's layer: zero by construction
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s", def.Name, m.Value, m.Unit)
		if m.N > 1 {
			fmt.Fprintf(w, "  q1 %.6g  q3 %.6g  n %d", m.Q1, m.Q3, m.N)
			if m.TailPct > 0 {
				fmt.Fprintf(w, "  p%.4g %.6g", m.TailPct, m.Tail)
			}
		}
		if def.Moves != "" {
			fmt.Fprintf(w, "  -> %s", def.Moves)
		}
		fmt.Fprintln(w)
	}
	if tr != nil {
		tr.printLayerTable(w)
	}
	fmt.Fprintf(w, "  ops attempted %d, failed %d\n", rec.Attempted, rec.Failed)
	if rec.Polluted {
		fmt.Fprintln(w, "  POLLUTED: system CPU exceeded user CPU over the timed section (page-fault storms); trust cpu_user_s over the wall clock")
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  FAILED %s\n", p)
	}
}

// resultFile is what -out accumulates and -compare reads.
type resultFile struct {
	Runs []runRecord `json:"runs"`
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func appendRecord(path string, rec *runRecord) error {
	f, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	f.Runs = append(f.Runs, *rec)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
