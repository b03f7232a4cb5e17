// Command benchgate holds `go test -bench` output to the performance
// floors declared in one file (cmd/benchgate/gates.json): allocation-free
// hot paths, costs that must not grow with chain depth, leak depth or
// retained epochs, and the payoff of each reuse tier over cold compute. A
// floor is data there, not a script in the CI workflow.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | go run ./cmd/benchgate
//	go run ./cmd/benchgate bench.out
//	go run ./cmd/benchgate -record BENCH_27.json bench.out
//	go run ./cmd/benchgate -trend
//
// Every gate prints one line with the value it read; the exit status is 1
// if any gate fails — a gate whose benchmark or metric is missing from the
// output fails, it is never skipped. -record also writes the run as JSON:
// every parsed benchmark line, every gate with its bound, the values it
// read and its verdict, and the host (CPU model, CPU count, Go version,
// commit) — one point of the per-PR trajectory the BENCH_*.json files at
// the repository root form. -trend reads those files instead of benchmark
// output and prints the trajectory as one Markdown table: a row per gate,
// a column per PR.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// gate bounds one metric. Bench is a regular expression a benchmark's whole
// name must match, not counting the -GOMAXPROCS suffix go test appends.
// Without Over, every matching line's Metric must lie within [Min, Max].
// With Over — the same kind of expression, for the baseline — the bound is
// on the ratio of the two sides' medians.
type gate struct {
	Bench  string   `json:"bench"`
	Over   string   `json:"over,omitempty"`
	Metric string   `json:"metric"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
	Why    string   `json:"why"`
}

func loadGates(path string) ([]gate, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var gates []gate
	if err := json.Unmarshal(raw, &gates); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i, g := range gates {
		if g.Bench == "" || g.Metric == "" || g.Min == nil && g.Max == nil {
			return nil, fmt.Errorf("%s: gate %d needs bench, metric and a min or max", path, i)
		}
		for _, expr := range []string{g.Bench, g.Over} {
			if _, err := regexp.Compile(expr); err != nil {
				return nil, fmt.Errorf("%s: gate %d: %w", path, i, err)
			}
		}
	}
	return gates, nil
}

// result is one benchmark line: its name, iteration count and value per
// unit.
type result struct {
	Name    string             `json:"name"`
	N       int                `json:"n"`
	Metrics map[string]float64 `json:"metrics"`
}

// parse reads the benchmark lines out of `go test -bench` output: a name
// starting with Benchmark, an iteration count, then value-unit pairs.
func parse(output string) []result {
	var out []result
	for _, line := range strings.Split(output, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			continue
		}
		r := result{Name: f[0], N: n, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(f); i += 2 {
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				r.Metrics[f[i+1]] = v
			}
		}
		out = append(out, r)
	}
	return out
}

// values collects metric, in ascending order, from every result whose whole
// name matches expr with or without a -GOMAXPROCS suffix.
func values(results []result, expr, metric string) []float64 {
	re := regexp.MustCompile(`^(?:` + expr + `)(?:-\d+)?$`)
	var vs []float64
	for _, r := range results {
		if v, ok := r.Metrics[metric]; ok && re.MatchString(r.Name) {
			vs = append(vs, v)
		}
	}
	sort.Float64s(vs)
	return vs
}

func median(sorted []float64) float64 {
	n := len(sorted)
	return (sorted[(n-1)/2] + sorted[n/2]) / 2
}

func (g gate) holds(v float64) bool {
	return (g.Min == nil || v >= *g.Min) && (g.Max == nil || v <= *g.Max)
}

// verdict is one gate's reading: the values it judged (every matching
// line's metric, or the ratio of the two sides' medians) and whether they
// hold.
type verdict struct {
	gate
	Values []float64 `json:"values"`
	OK     bool      `json:"ok"`
}

// check judges results against every gate, writes one line per gate to w
// and returns the verdicts and how many failed.
func check(w io.Writer, gates []gate, results []result) (out []verdict, failed int) {
	for _, g := range gates {
		bound := ""
		if g.Min != nil {
			bound += fmt.Sprintf(" min %g", *g.Min)
		}
		if g.Max != nil {
			bound += fmt.Sprintf(" max %g", *g.Max)
		}
		v, read := verdict{gate: g}, ""
		num, den := values(results, g.Bench, g.Metric), []float64{1}
		if g.Over != "" {
			den = values(results, g.Over, g.Metric)
		}
		switch {
		case len(num) == 0:
			read = fmt.Sprintf("no %s line reports %s", g.Bench, g.Metric)
		case len(den) == 0 || median(den) == 0:
			read = fmt.Sprintf("no %s line reports a nonzero %s", g.Over, g.Metric)
		case g.Over != "":
			ratio := median(num) / median(den)
			v.Values, v.OK, read = []float64{ratio}, g.holds(ratio), fmt.Sprintf("%.3f", ratio)
		default:
			v.Values, v.OK = num, g.holds(num[0]) && g.holds(num[len(num)-1])
			read = fmt.Sprintf("%g..%g over %d lines", num[0], num[len(num)-1], len(num))
		}
		word := "ok"
		if !v.OK {
			word = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%-4s %s = %s (%s) — %s\n", word, g.label(), read, bound[1:], g.Why)
		out = append(out, v)
	}
	return out, failed
}

// host is where a recorded run happened.
type host struct {
	CPU    string `json:"cpu"`
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
}

// thisHost reads the CPU model from /proc/cpuinfo and the commit from git
// ("-dirty" when the working tree has changes); either reads "unknown"
// where it cannot be had.
func thisHost() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: "unknown"}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		if _, rest, ok := strings.Cut(string(info), "\nmodel name"); ok {
			line, _, _ := strings.Cut(rest, "\n")
			h.CPU = strings.TrimSpace(strings.TrimLeft(line, " \t:"))
		}
	}
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// writeRecord writes one run's record as indented JSON.
func writeRecord(path string, h host, results []result, verdicts []verdict) error {
	data, err := json.MarshalIndent(struct {
		Note       string    `json:"note"`
		Host       host      `json:"host"`
		Benchmarks []result  `json:"benchmarks"`
		Gates      []verdict `json:"gates"`
	}{
		"One run of the CI bench-gate benchmarks, judged by cmd/benchgate/gates.json; " +
			"single runs, not the bench/ harness's median-of-pairs record.",
		h, results, verdicts,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// label names a gate the way its report line does.
func (g gate) label() string {
	if g.Over != "" {
		return g.Bench + " / " + g.Over + " " + g.Metric
	}
	return g.Bench + " " + g.Metric
}

// trend writes the records at paths, each named BENCH_<pr>.json, as one
// Markdown table: a column per PR in numeric order, a row per gate in the
// newest record's order (gates only older records carry follow). A cell is
// what the gate read (a range over several lines, "-" for nothing), marked
// FAIL when the gate failed, and empty where that PR did not record it.
func trend(w io.Writer, paths []string) error {
	type column struct {
		pr    int
		gates []verdict
	}
	cols := make([]column, len(paths))
	for i, path := range paths {
		pr, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json"))
		if err != nil {
			return fmt.Errorf("%s: not named BENCH_<pr>.json", path)
		}
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &struct{ Gates *[]verdict }{&cols[i].gates})
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		cols[i].pr = pr
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].pr < cols[j].pr })

	num := func(x float64) string { return strings.TrimSuffix(fmt.Sprintf("%.3f", x), ".000") }
	var rows []string
	cells := map[string][]string{}
	for i := len(cols) - 1; i >= 0; i-- {
		for _, v := range cols[i].gates {
			row := v.label()
			if cells[row] == nil {
				rows, cells[row] = append(rows, row), make([]string, len(cols))
			}
			cell := "-"
			if n := len(v.Values); n > 0 {
				cell = num(v.Values[0])
				if v.Values[n-1] != v.Values[0] {
					cell += ".." + num(v.Values[n-1])
				}
			}
			if !v.OK {
				cell += " FAIL"
			}
			cells[row][i] = cell
		}
	}
	fmt.Fprint(w, "| gate |")
	for _, c := range cols {
		fmt.Fprintf(w, " %d |", c.pr)
	}
	fmt.Fprint(w, "\n|---|"+strings.Repeat("---|", len(cols))+"\n")
	for _, row := range rows {
		fmt.Fprintf(w, "| %s | %s |\n", strings.ReplaceAll(row, "|", `\|`), strings.Join(cells[row], " | "))
	}
	return nil
}

func main() {
	path := flag.String("gates", "cmd/benchgate/gates.json", "the gates file")
	record := flag.String("record", "", "also write the parsed lines, the verdicts and the host to this JSON file")
	trendFlag := flag.Bool("trend", false, "print the BENCH_*.json records in the current directory as one table instead")
	flag.Parse()
	if *trendFlag {
		paths, err := filepath.Glob("BENCH_*.json")
		if err == nil {
			err = trend(os.Stdout, paths)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		return
	}
	gates, err := loadGates(*path)
	var output []byte
	switch {
	case err != nil:
	case flag.NArg() > 0:
		output, err = os.ReadFile(flag.Arg(0))
	default:
		output, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	results := parse(string(output))
	verdicts, failed := check(os.Stdout, gates, results)
	if *record != "" {
		if err := writeRecord(*record, thisHost(), results, verdicts); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
	}
	if failed > 0 {
		fmt.Printf("benchgate: %d of %d gates failed\n", failed, len(gates))
		os.Exit(1)
	}
}
