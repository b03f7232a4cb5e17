package report

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

func sweepFixture() []engine.Result {
	return []engine.Result{
		{
			Scenario: "5.2.1",
			Params:   engine.Params{P0: 0.5, Beta0: 0.2},
			Outcome:  "2 finalized branches",
			Metrics: []engine.Metric{
				{Name: "analytic_epoch", Value: 3108},
				{Name: "sim_epoch", Value: 3108},
			},
		},
		{
			Scenario: "5.3",
			Params:   engine.Params{P0: 0.5, Beta0: 0.33, Seed: 7},
			Metrics: []engine.Metric{
				{Name: "sim_epoch", Value: 4000},
				{Name: "mc_probability", Value: 0.42},
			},
		},
		{
			Scenario: "leaksim",
			Params:   engine.Params{P0: 0.5, Mode: "warp"},
			Err:      "unknown mode",
		},
	}
}

func TestSweepTableColumns(t *testing.T) {
	tbl := SweepTable("demo sweep", sweepFixture())
	head := strings.Join(tbl.Headers, " ")
	for _, want := range []string{"scenario", "p0", "beta0", "seed", "mode", "outcome", "analytic_epoch", "sim_epoch", "mc_probability", "error"} {
		if !strings.Contains(head, want) {
			t.Errorf("headers %v missing %q", tbl.Headers, want)
		}
	}
	// No n/horizon columns: zero throughout the fixture.
	if strings.Contains(head, "horizon") || tbl.Headers[4] == "n" {
		t.Errorf("zero-valued param columns must be omitted: %v", tbl.Headers)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "3108") || !strings.Contains(b.String(), "unknown mode") {
		t.Errorf("render lost data:\n%s", b.String())
	}
}

func TestWriteSweepCSV(t *testing.T) {
	var b strings.Builder
	if err := WriteSweepCSV(&b, "demo sweep", sweepFixture()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // comment + header + 3 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "# demo sweep") {
		t.Errorf("missing title comment: %q", lines[0])
	}
	if !strings.Contains(lines[1], "scenario,p0,beta0") {
		t.Errorf("header = %q", lines[1])
	}
	// The outcome contains no comma here, but quoting must trigger on one.
	if !strings.Contains(out, "2 finalized branches") {
		t.Error("outcome column lost")
	}
}

func TestWriteSweepCSVQuotesCommas(t *testing.T) {
	results := []engine.Result{{
		Scenario: "x",
		Params:   engine.Params{P0: 0.5},
		Outcome:  `a,b "quoted"`,
	}}
	var b strings.Builder
	if err := WriteSweepCSV(&b, "", results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"a,b ""quoted"""`) {
		t.Errorf("comma cell not quoted: %s", b.String())
	}
	// Newlines inside a cell must stay inside one quoted field.
	b.Reset()
	if err := WriteSweepCSV(&b, "", []engine.Result{{
		Scenario: "x", Params: engine.Params{P0: 0.5}, Err: "line one\nline two",
	}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\"line one\nline two\"") {
		t.Errorf("newline cell not quoted: %q", b.String())
	}
}

func TestWriteSweepJSONRoundTrips(t *testing.T) {
	var b strings.Builder
	if err := WriteSweepJSON(&b, sweepFixture()); err != nil {
		t.Fatal(err)
	}
	var back []engine.Result
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[0].Scenario != "5.2.1" || back[2].Err != "unknown mode" {
		t.Errorf("round trip lost data: %+v", back)
	}
	if v, ok := back[1].Metric("mc_probability"); !ok || v != 0.42 {
		t.Errorf("metric lost: %v %v", v, ok)
	}
}

func TestFigureWriteJSON(t *testing.T) {
	f := &Figure{Title: "demo", XName: "x", X: []float64{1, 2}}
	if err := f.Add("y", []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := f.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back Figure
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Title != "demo" || len(back.Series) != 1 || back.Series[0].Values[1] != 4 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

// TestSweepDurationColumn: results carrying execution metadata gain an
// "ms" column (cache hits say so), results without stay metadata-free.
func TestSweepDurationColumn(t *testing.T) {
	plain := sweepFixture()
	if tbl := SweepTable("no meta", plain); strings.Contains(strings.Join(tbl.Headers, " "), "ms") {
		t.Errorf("meta-free sweep must not grow an ms column: %v", tbl.Headers)
	}

	timed := sweepFixture()
	timed[0].Meta = &engine.RunMeta{DurationMS: 12.5}
	timed[1].Meta = &engine.RunMeta{Cached: true}
	tbl := SweepTable("timed", timed)
	if !strings.Contains(strings.Join(tbl.Headers, " "), "ms") {
		t.Fatalf("timed sweep missing ms column: %v", tbl.Headers)
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "12.5") || !strings.Contains(b.String(), "cached") {
		t.Errorf("duration cells lost:\n%s", b.String())
	}
	b.Reset()
	if err := WriteSweepCSV(&b, "", timed); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), ",ms") || !strings.Contains(b.String(), "12.5") {
		t.Errorf("CSV duration column lost:\n%s", b.String())
	}
}

func TestSweepThroughput(t *testing.T) {
	results := sweepFixture()
	results[0].Meta = &engine.RunMeta{DurationMS: 300}
	results[1].Meta = &engine.RunMeta{DurationMS: 500}
	results[2].Meta = &engine.RunMeta{Cached: true} // excluded from compute time
	line := SweepThroughput(results, 400*time.Millisecond)
	for _, want := range []string{"3 cells", "cells/sec", "800ms compute"} {
		if !strings.Contains(line, want) {
			t.Errorf("throughput line %q missing %q", line, want)
		}
	}
	if got := SweepThroughput(nil, time.Second); got != "" {
		t.Errorf("empty sweep throughput = %q, want empty", got)
	}
	if got := SweepThroughput(results, 0); got != "" {
		t.Errorf("zero wall throughput = %q, want empty", got)
	}
}

// TestTableCellsRouteThroughRegistry pins the engine wiring of Tables 2-3:
// every cell names the generic leaksim scenario with the paper's scale.
func TestTableCellsRouteThroughRegistry(t *testing.T) {
	for name, cells := range map[string][]engine.Cell{"t2": TableCells(2), "t3": TableCells(3)} {
		if len(cells) != 5 {
			t.Fatalf("%s: cells = %d, want 5", name, len(cells))
		}
		for _, c := range cells {
			if c.Scenario != engine.ScenarioLeakSim {
				t.Errorf("%s: cell scenario = %q", name, c.Scenario)
			}
			if _, ok := engine.Lookup(c.Scenario); !ok {
				t.Errorf("%s: scenario %q not in registry", name, c.Scenario)
			}
		}
		if cells[0].Params.Mode != "absent" {
			t.Errorf("%s: beta0=0 row must run mode absent, got %q", name, cells[0].Params.Mode)
		}
	}
}
