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
//
// Every gate prints one line with the value it read; the exit status is 1
// if any gate fails — a gate whose benchmark or metric is missing from the
// output fails, it is never skipped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
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

// result is one benchmark line: its name and its value per unit.
type result struct {
	name    string
	metrics map[string]float64
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
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		r := result{name: f[0], metrics: map[string]float64{}}
		for i := 2; i+1 < len(f); i += 2 {
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				r.metrics[f[i+1]] = v
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
		if v, ok := r.metrics[metric]; ok && re.MatchString(r.name) {
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

// check judges output against every gate, writes one line per gate to w and
// returns how many failed.
func check(w io.Writer, gates []gate, output string) int {
	results := parse(output)
	failed := 0
	for _, g := range gates {
		what, bound := g.Bench+" "+g.Metric, ""
		if g.Over != "" {
			what = g.Bench + " / " + g.Over + " " + g.Metric
		}
		if g.Min != nil {
			bound += fmt.Sprintf(" min %g", *g.Min)
		}
		if g.Max != nil {
			bound += fmt.Sprintf(" max %g", *g.Max)
		}
		ok, read := false, ""
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
			ok, read = g.holds(ratio), fmt.Sprintf("%.3f", ratio)
		default:
			ok = g.holds(num[0]) && g.holds(num[len(num)-1])
			read = fmt.Sprintf("%g..%g over %d lines", num[0], num[len(num)-1], len(num))
		}
		verdict := "ok"
		if !ok {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%-4s %s = %s (%s) — %s\n", verdict, what, read, bound[1:], g.Why)
	}
	return failed
}

func main() {
	path := flag.String("gates", "cmd/benchgate/gates.json", "the gates file")
	flag.Parse()
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
	if failed := check(os.Stdout, gates, string(output)); failed > 0 {
		fmt.Printf("benchgate: %d of %d gates failed\n", failed, len(gates))
		os.Exit(1)
	}
}
