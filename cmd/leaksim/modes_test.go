package main

import (
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/gasperleak"
)

// runArgs parses args with leaksim's flag set and runs them, returning
// what leaksim printed.
func runArgs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	o, err := parse(args, io.Discard)
	if err != nil {
		t.Fatalf("leaksim %s: %v", strings.Join(args, " "), err)
	}
	var b strings.Builder
	err = run(context.Background(), &b, o)
	return b.String(), err
}

// mustRun is runArgs for a run that must succeed.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, err := runArgs(t, args...)
	if err != nil {
		t.Fatalf("leaksim %s: %v", strings.Join(args, " "), err)
	}
	return out
}

// digests are the SHA-256 digests in testdata/digests.json: of what the
// tables and figures commands printed before leaksim absorbed them, keyed
// by the leaksim arguments that print the same bytes ("-table 2"), or by
// the file name -fig all writes ("fig7sim.csv"). "-table 0 -json" is the
// digest of the JSON results with each result's meta removed (stripMeta).
func digests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// stripMeta re-encodes a JSON array of results without their
// non-deterministic meta: keys sorted, values compacted.
func stripMeta(t *testing.T, data string) []byte {
	t.Helper()
	var results []map[string]json.RawMessage
	if err := json.Unmarshal([]byte(data), &results); err != nil {
		t.Fatalf("not a JSON array of results: %v", err)
	}
	for _, r := range results {
		delete(r, "meta")
	}
	out, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTablesMatchDigests: -table N prints, byte for byte, what the tables
// command printed, and -table 0 -json the same engine results.
func TestTablesMatchDigests(t *testing.T) {
	want := digests(t)
	for _, key := range []string{"-table 0", "-table 1", "-table 2", "-table 3", "-table 0 -json"} {
		out := []byte(mustRun(t, strings.Fields(key)...))
		if strings.HasSuffix(key, "-json") {
			out = stripMeta(t, string(out))
		}
		if got := digest(out); got != want[key] {
			t.Errorf("leaksim %s: digest %s, want %s", key, got, want[key])
		}
	}
}

func TestRunSingleTables(t *testing.T) {
	for _, n := range []int{2, 3} {
		out := mustRun(t, "-table", strconv.Itoa(n))
		if !strings.HasPrefix(out, fmt.Sprintf("Table %d: ", n)) || strings.Count(out, "\n") != 9 {
			t.Errorf("table %d must render its title, header, rule, 5 beta0 rows and a blank line:\n%s", n, out)
		}
	}
}

func TestRunBadTable(t *testing.T) {
	for _, n := range []string{"9", "-1"} {
		if _, err := runArgs(t, "-table", n); err == nil || !strings.Contains(err.Error(), "unknown table") {
			t.Errorf("-table %s: err = %v, want unknown table", n, err)
		}
	}
}

func TestRunTableRejectsNegativeWorkers(t *testing.T) {
	rejectsNegativeWorkers(t, options{tables: true, table: 2})
}

func TestRunTablesJSON(t *testing.T) {
	var results []gasperleak.ScenarioResult
	if err := json.Unmarshal([]byte(mustRun(t, "-table", "2", "-json", "-workers", "2")), &results); err != nil {
		t.Fatalf("-json output is not JSON: %v", err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d, want the 5 Table 2 rows", len(results))
	}
	for _, r := range results {
		if r.Scenario != "leaksim" {
			t.Errorf("table 2 row ran scenario %q, want leaksim", r.Scenario)
		}
	}
}

// TestRunEveryFigure: -fig ID prints, byte for byte, the CSV the figures
// command wrote for every figure.
func TestRunEveryFigure(t *testing.T) {
	want := digests(t)
	for _, id := range figureIDs {
		if got := digest([]byte(mustRun(t, "-fig", id))); got != want["fig"+id+".csv"] {
			t.Errorf("-fig %s: digest %s, want %s", id, got, want["fig"+id+".csv"])
		}
	}
}

func TestRunFigRejectsNegativeWorkers(t *testing.T) {
	rejectsNegativeWorkers(t, options{fig: "2"})
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := runArgs(t, "-fig", "99"); err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Errorf("-fig 99: err = %v, want unknown figure", err)
	}
}

// TestRunFigAll: -fig all writes every figure into -out as CSV, names each
// file on leaksim's writer in figure order, and the files hold the bytes the
// figures command wrote.
func TestRunFigAll(t *testing.T) {
	figAllMatchesDigests(t, ".csv")
}

// TestRunFigAllJSON: -fig all -json does the same with JSON files.
func TestRunFigAllJSON(t *testing.T) {
	figAllMatchesDigests(t, ".json", "-json")
}

// figAllMatchesDigests runs -fig all -out into a fresh directory with the
// extra flags and checks the wrote lines and each figID+ext file's digest.
func figAllMatchesDigests(t *testing.T, ext string, extra ...string) {
	t.Helper()
	want := digests(t)
	dir := t.TempDir()
	args := append([]string{"-fig", "all", "-out", dir}, extra...)
	out := mustRun(t, args...)
	var wrote strings.Builder
	for _, id := range figureIDs {
		path := filepath.Join(dir, "fig"+id+ext)
		fmt.Fprintln(&wrote, "wrote", path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Error(err)
		} else if got := digest(data); got != want["fig"+id+ext] {
			t.Errorf("%s: digest %s, want %s", path, got, want["fig"+id+ext])
		}
	}
	if out != wrote.String() {
		t.Errorf("leaksim %s printed:\n%s\nwant:\n%s", strings.Join(args, " "), out, wrote.String())
	}
}

// TestRunFig10MCPrintsBounceSweep: -fig 10mc -beta0 0.33 carries the seven
// epoch, Equation 24 and Monte-Carlo values `bounce -beta0 0.33 -sweep`
// printed.
func TestRunFig10MCPrintsBounceSweep(t *testing.T) {
	want := []string{
		" 1000      0.0000      0.0000",
		" 2000      0.0000      0.0000",
		" 3000      0.0013      0.0000",
		" 4000      0.0253      0.0016",
		" 5000      0.0810      0.0152",
		" 6000      0.1437      0.0520",
		" 7000      0.1993      0.0988",
	}
	r := csv.NewReader(strings.NewReader(mustRun(t, "-fig", "10mc", "-beta0", "0.33")))
	r.Comment = '#' // the title line
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+len(want) || strings.Join(rows[0], ",") != "epoch,monte_carlo,equation_24" {
		t.Fatalf("-fig 10mc rows = %q", rows)
	}
	for i, row := range rows[1:] {
		var v [3]float64
		for j := range v {
			if v[j], err = strconv.ParseFloat(row[j], 64); err != nil {
				t.Fatal(err)
			}
		}
		if got := fmt.Sprintf("%5.0f  %10.4f  %10.4f", v[0], v[2], v[1]); got != want[i] {
			t.Errorf("row %d: %q, want %q", i, got, want[i])
		}
	}
}

// TestRunFig10MCSeries: a small -fig 10mc run, as JSON, carries the
// Equation 24 and Monte-Carlo series over the same epochs.
func TestRunFig10MCSeries(t *testing.T) {
	var f gasperleak.Figure
	if err := json.Unmarshal([]byte(mustRun(t, "-fig", "10mc", "-n", "50", "-runs", "1", "-json")), &f); err != nil {
		t.Fatalf("-fig 10mc -json output is not JSON: %v", err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("10mc series = %d, want 2", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Values) != len(f.X) {
			t.Errorf("series %q has %d values for %d epochs", s.Name, len(s.Values), len(f.X))
		}
	}
}

func TestRunBadRuns(t *testing.T) {
	if _, err := runArgs(t, "-fig", "10mc", "-runs", "0"); err == nil || !strings.Contains(err.Error(), "runs=0") {
		t.Errorf("-runs 0: err = %v, want a runs error", err)
	}
}

// TestRunBounceWindow: the Equation 14 window per beta0 is an
// analytic/bounce sweep over beta0, with the window in its ASCII columns.
func TestRunBounceWindow(t *testing.T) {
	out := mustRun(t, "-scenario", "analytic/bounce", "-sweep", "beta0=0.3,0.3333")
	for _, want := range []string{"window_lo", "window_hi", "0.3333"} {
		if !strings.Contains(out, want) {
			t.Errorf("the ASCII sweep lacks %q:\n%s", want, out)
		}
	}
}

// TestRunBounceWindowJSON: the same sweep with -json, over the seven beta0
// values bounce -window printed.
func TestRunBounceWindowJSON(t *testing.T) {
	out := mustRun(t, "-scenario", "analytic/bounce", "-sweep", "beta0=0.05,0.1,0.15,0.2,0.25,0.3,0.3333", "-json")
	var results []gasperleak.ScenarioResult
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("-json output is not JSON: %v", err)
	}
	if len(results) != 7 || results[0].Scenario != "analytic/bounce" {
		t.Fatalf("results = %+v, want 7 analytic/bounce cells", results)
	}
	lo, _ := results[6].Metric("window_lo")
	hi, _ := results[6].Metric("window_hi")
	if got := fmt.Sprintf("(%.4f, %.4f)", lo, hi); got != "(0.5000, 1.0000)" {
		t.Errorf("beta0 0.3333 window = %s, want (0.5000, 1.0000)", got)
	}
}

func TestRunBounceRejectsNegativeWorkers(t *testing.T) {
	rejectsNegativeWorkers(t, options{scenario: "analytic/bounce", sweep: "beta0=0.1,0.2"})
}

// TestRunBounceOneEpoch: the one-epoch bouncing estimate is an
// analytic/bounce run plus a bounce-mc sweep over seeds, each run to the
// evaluation epoch with its own derived seed.
func TestRunBounceOneEpoch(t *testing.T) {
	out := mustRun(t, "-scenario", "analytic/bounce", "-beta0", "0.3333", "-horizon", "500")
	for _, want := range []string{"eq24_probability", "window_lo", "in_window"} {
		if !strings.Contains(out, want) {
			t.Errorf("analytic/bounce output missing %q:\n%s", want, out)
		}
	}
	var results []gasperleak.ScenarioResult
	out = mustRun(t, "-scenario", "bounce-mc", "-sweep", "seed=1:2:1", "-beta0", "0.3333", "-n", "50", "-horizon", "500", "-json")
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Params.Seed == results[1].Params.Seed {
		t.Fatalf("results = %+v, want two runs with distinct seeds", results)
	}
	for _, r := range results {
		if _, ok := r.Metric("mc_probability"); !ok || r.Params.Horizon != 500 {
			t.Errorf("bounce-mc run %+v lacks mc_probability at epoch 500", r)
		}
	}
}

// TestRunBounceMCCurveJSON: sampled bounce-mc runs carry the crossing curve
// over the leak in their JSON.
func TestRunBounceMCCurveJSON(t *testing.T) {
	var results []gasperleak.ScenarioResult
	out := mustRun(t, "-scenario", "bounce-mc", "-sweep", "seed=1:2:1", "-beta0", "0.33", "-n", "50", "-sample", "1000", "-horizon", "7000", "-json")
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(results[0].Curve) != 7 {
		t.Errorf("results = %+v, want two runs with a 7-point curve", results)
	}
}

// TestRunRejectsNegativeHorizon: a negative evaluation epoch is an error,
// not a run that wraps to ~2^64 epochs.
func TestRunRejectsNegativeHorizon(t *testing.T) {
	for _, sc := range []string{"analytic/bounce", "bounce-mc"} {
		if _, err := runArgs(t, "-scenario", sc, "-horizon", "-5", "-n", "50"); err == nil || !strings.Contains(err.Error(), "horizon") {
			t.Errorf("%s -horizon -5: err = %v, want a horizon error", sc, err)
		}
	}
}

func TestParseRejectsStrayArguments(t *testing.T) {
	if _, err := parse([]string{"-scenario", "leaksim", "-sweep", "p0=0.3;", "beta0=0.1"}, io.Discard); err == nil {
		t.Error("an unquoted -sweep spec split into two arguments must not parse")
	}
}
