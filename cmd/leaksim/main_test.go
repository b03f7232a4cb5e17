package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/gasperleak"
	"repro/internal/store"
)

// TestRunAllScenarios runs each Table 1 scenario; -scenario all is Table
// 1's one path, and prints exactly what -table 1 prints.
func TestRunAllScenarios(t *testing.T) {
	for _, sc := range []string{"5.1", "5.2.1", "5.2.2", "5.2.3", "5.2.3c", "5.3", "all"} {
		beta0 := 0.2
		if sc == "5.2.3" || sc == "5.2.3c" {
			beta0 = 0.25
		}
		var b strings.Builder
		o := options{scenario: sc, params: gasperleak.ScenarioParams{P0: 0.5, Beta0: beta0, Seed: 1}}
		if err := run(context.Background(), &b, o); err != nil {
			t.Errorf("scenario %s: %v", sc, err)
		}
		if b.Len() == 0 {
			t.Errorf("scenario %s: no output", sc)
		}
		if sc != "all" {
			continue
		}
		var table strings.Builder
		if err := run(context.Background(), &table, options{tables: true, table: 1}); err != nil {
			t.Fatal(err)
		}
		if b.String() != table.String() {
			t.Errorf("-scenario all printed\n%s\nwant -table 1's\n%s", b.String(), table.String())
		}
	}
}

// TestIgnoredParamsShareOneStoreEntry: 5.2.1 reads only p0 and beta0, so
// -n and -horizon change nothing about its run. They are stamped 0, and the
// plain command is a store hit on the same one entry with the same payload.
func TestIgnoredParamsShareOneStoreEntry(t *testing.T) {
	dir := t.TempDir()
	var payloads [][]byte
	for i, args := range [][]string{
		{"-scenario", "5.2.1", "-n", "-5", "-horizon", "10", "-store", dir, "-json"},
		{"-scenario", "5.2.1", "-store", dir, "-json"},
	} {
		var results []gasperleak.ScenarioResult
		if err := json.Unmarshal([]byte(mustRun(t, args...)), &results); err != nil || len(results) != 1 {
			t.Fatalf("leaksim %s: %d results (%v)", strings.Join(args, " "), len(results), err)
		}
		r := results[0]
		if r.Params.N != 0 || r.Params.Horizon != 0 {
			t.Errorf("leaksim %s: n = %d, horizon = %d, want 0 (5.2.1 reads neither)", strings.Join(args, " "), r.Params.N, r.Params.Horizon)
		}
		if cached := r.Meta != nil && r.Meta.Cached; cached != (i == 1) {
			t.Errorf("leaksim %s: cached = %v", strings.Join(args, " "), cached)
		}
		b, err := json.Marshal(r.WithoutMeta())
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, b)
	}
	if string(payloads[0]) != string(payloads[1]) {
		t.Errorf("payloads differ:\n%s\n%s", payloads[0], payloads[1])
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := st.Stats().Entries; n != 1 {
		t.Errorf("store holds %d entries for one run, want 1", n)
	}
}

// TestRunTablesRejectCSVAndVerbose: the tables path has neither a CSV form
// nor a per-cell -v log, and says so rather than ignoring the flag.
func TestRunTablesRejectCSVAndVerbose(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "1", "-csv"}, {"-scenario", "all", "-csv"},
		{"-table", "2", "-v"}, {"-scenario", "all", "-v"},
	} {
		if _, err := runArgs(t, args...); err == nil || !strings.Contains(err.Error(), "-json emits") {
			t.Errorf("leaksim %s: %v, want the tables' CSV/-v error", strings.Join(args, " "), err)
		}
	}
}

func TestRunUnknownScenario(t *testing.T) {
	if err := run(context.Background(), &strings.Builder{}, options{scenario: "9.9"}); err == nil {
		t.Error("unknown scenario must error")
	}
}

func TestRunList(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), &b, options{list: true}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"5.1", "leaksim", "bounce-mc", "analytic/conflict", "sim/partition"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("-list output missing %q:\n%s", want, b.String())
		}
	}
}

func TestRunSweepGridASCII(t *testing.T) {
	var b strings.Builder
	o := options{
		scenario: "analytic/threshold",
		sweep:    "p0=0.3,0.5,0.7",
		workers:  2,
	}
	if err := run(context.Background(), &b, o); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "threshold_both_branches") || !strings.Contains(out, "0.5") {
		t.Errorf("sweep output incomplete:\n%s", out)
	}
}

// TestRunSweepFlagFallback: plain flags pin dimensions the sweep spec
// leaves out (-horizon, -n here).
func TestRunSweepFlagFallback(t *testing.T) {
	var b strings.Builder
	o := options{
		scenario: "bounce-mc",
		sweep:    "beta0=0.32,0.33",
		jsonOut:  true,
		params:   gasperleak.ScenarioParams{N: 50, Horizon: 300},
	}
	if err := run(context.Background(), &b, o); err != nil {
		t.Fatal(err)
	}
	var results []gasperleak.ScenarioResult
	if err := json.Unmarshal([]byte(b.String()), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	for _, r := range results {
		if r.Params.Horizon != 300 || r.Params.N != 50 {
			t.Errorf("flag fallback lost: %+v", r.Params)
		}
	}
}

func TestRunSweepRejectsAll(t *testing.T) {
	if err := run(context.Background(), &strings.Builder{}, options{scenario: "all", sweep: "p0=0.5"}); err == nil {
		t.Error("-sweep with -scenario all must error")
	}
}

func TestRunSweepRejectsUnknownScenario(t *testing.T) {
	if err := run(context.Background(), &strings.Builder{}, options{scenario: "leaksym", sweep: "p0=0.5"}); err == nil {
		t.Error("-sweep with an unknown scenario must error")
	}
}

func TestRunSweepFailsWhenEveryCellFails(t *testing.T) {
	err := run(context.Background(), &strings.Builder{}, options{scenario: "leaksim", sweep: "mode=warp"})
	if err == nil || !strings.Contains(err.Error(), "every sweep cell failed") {
		t.Errorf("all-failed sweep must error, got %v", err)
	}
	// A partial failure still renders (exit 0) with the error column set.
	var b strings.Builder
	if err := run(context.Background(), &b, options{scenario: "leaksim", sweep: "mode=warp,double; horizon=100", params: gasperleak.ScenarioParams{N: 100}}); err != nil {
		t.Fatalf("partial sweep must render: %v", err)
	}
	if !strings.Contains(b.String(), "unknown leaksim mode") {
		t.Errorf("partial sweep lost the cell error:\n%s", b.String())
	}
}

func TestRunJSONOutput(t *testing.T) {
	var b strings.Builder
	o := options{scenario: "analytic/bounce", jsonOut: true, params: gasperleak.ScenarioParams{Beta0: 0.33}}
	if err := run(context.Background(), &b, o); err != nil {
		t.Fatal(err)
	}
	var results []gasperleak.ScenarioResult
	if err := json.Unmarshal([]byte(b.String()), &results); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, b.String())
	}
	if len(results) != 1 || results[0].Scenario != "analytic/bounce" {
		t.Errorf("results = %+v", results)
	}
}

func TestRunCSVOutput(t *testing.T) {
	var b strings.Builder
	o := options{scenario: "analytic/threshold", sweep: "p0=0.4,0.6", csvOut: true}
	if err := run(context.Background(), &b, o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Errorf("CSV lines = %d:\n%s", len(lines), b.String())
	}
}

// Negative -workers is rejected with a clear error in every mode (uniform
// via the client constructor), not silently clamped.
func TestRunRejectsNegativeWorkers(t *testing.T) {
	rejectsNegativeWorkers(t, options{scenario: "5.1"})
}

// rejectsNegativeWorkers runs o with -workers -2 and wants an error that
// names the flag and the value.
func rejectsNegativeWorkers(t *testing.T, o options) {
	t.Helper()
	o.workers = -2
	err := run(context.Background(), &strings.Builder{}, o)
	if err == nil || !strings.Contains(err.Error(), "-2") || !strings.Contains(err.Error(), "workers") {
		t.Errorf("%+v: err = %v, want a clear validation error", o, err)
	}
}

// TestParseRejectsNonFiniteFloats: -p0, -beta0 and -rate refuse NaN and
// the infinities before anything runs, naming the flag; the number was
// never a cell JSON can carry.
func TestParseRejectsNonFiniteFloats(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "5.1", "-p0", "NaN"},
		{"-scenario", "5.2.1", "-beta0", "+Inf"},
		{"-scenario", "sim/drops", "-rate", "-Inf"},
		{"-fig", "10mc", "-beta0", "nan"},
	} {
		var errOut strings.Builder
		if _, err := parse(args, &errOut); err == nil || !strings.Contains(err.Error(), args[len(args)-2]) || !strings.Contains(errOut.String(), "finite") {
			t.Errorf("%v: err = %v, stderr %q; want a refusal naming %s", args, err, errOut.String(), args[len(args)-2])
		}
	}
	if _, err := parse([]string{"-p0", "0", "-beta0", "1e-300", "-rate", "1"}, &strings.Builder{}); err != nil {
		t.Errorf("finite flags refused: %v", err)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile each write a gzipped pprof
// profile of the run, which prints what it prints without them; a profile
// that cannot be created fails the run.
func TestProfileFlags(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	results := func(args ...string) []gasperleak.ScenarioResult {
		var results []gasperleak.ScenarioResult
		if err := json.Unmarshal([]byte(mustRun(t, args...)), &results); err != nil || len(results) != 1 {
			t.Fatalf("leaksim %s: %d results (%v)", strings.Join(args, " "), len(results), err)
		}
		results[0].Meta = nil
		return results
	}
	plain := results("-scenario", "5.2.1", "-json")
	if profiled := results("-scenario", "5.2.1", "-json", "-cpuprofile", cpu, "-memprofile", mem); !reflect.DeepEqual(plain, profiled) {
		t.Errorf("a profiled run printed %+v, want %+v", profiled, plain)
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil || !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes (%v), want a gzipped profile", filepath.Base(path), len(data), err)
		}
	}
	o, err := parse([]string{"-scenario", "5.2.1", "-cpuprofile", filepath.Join(dir, "absent", "cpu.pprof")}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &strings.Builder{}, o); err == nil {
		t.Error("a profile that cannot be created must fail the run")
	}
}
