package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/gasperleak"
)

func TestRunSingleTables(t *testing.T) {
	for _, n := range []int{2, 3} {
		var b strings.Builder
		if err := run(context.Background(), &b, n, 1, 0, false); err != nil {
			t.Errorf("table %d: %v", n, err)
		}
		if !strings.HasPrefix(b.String(), fmt.Sprintf("Table %d: ", n)) || strings.Count(b.String(), "\n") != 9 {
			t.Errorf("table %d must render its title, header, rule, 5 beta0 rows and a blank line:\n%s", n, b.String())
		}
	}
}

func TestRunBadTable(t *testing.T) {
	if err := run(context.Background(), &strings.Builder{}, 9, 1, 0, false); err == nil {
		t.Error("unknown table must error")
	}
}

func TestRunJSON(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), &b, 2, 1, 2, true); err != nil {
		t.Fatal(err)
	}
	var results []gasperleak.ScenarioResult
	if err := json.Unmarshal([]byte(b.String()), &results); err != nil {
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

// Negative -workers is rejected with a clear error (uniform across all
// cmd tools via the client constructor), not silently clamped.
func TestRunRejectsNegativeWorkers(t *testing.T) {
	err := run(context.Background(), &strings.Builder{}, 2, 1, -2, false)
	if err == nil || !strings.Contains(err.Error(), "-2") || !strings.Contains(err.Error(), "workers") {
		t.Errorf("workers=-2 err = %v, want a clear validation error", err)
	}
}
