package gasperleak_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/gasperleak"
)

func TestNewClientOptionValidation(t *testing.T) {
	if _, err := gasperleak.NewClient(gasperleak.WithWorkers(-3)); err == nil ||
		!strings.Contains(err.Error(), "-3") || !strings.Contains(err.Error(), "workers") {
		t.Errorf("WithWorkers(-3) err = %v, want a clear validation error", err)
	}
	if _, err := gasperleak.NewClient(gasperleak.WithWorkers(4)); err != nil {
		t.Fatal(err)
	}
}

func TestClientSweepStreamAndThroughput(t *testing.T) {
	c, err := gasperleak.NewClient(gasperleak.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	g, err := gasperleak.ParseGrid("analytic/threshold", "p0=0.3,0.5,0.7")
	if err != nil {
		t.Fatal(err)
	}
	cells := g.Cells()
	start := time.Now()
	var results []gasperleak.ScenarioResult
	for u := range c.SweepStream(context.Background(), cells) {
		if u.Total != len(cells) {
			t.Fatalf("Total = %d, want %d", u.Total, len(cells))
		}
		results = append(results, u.Result)
	}
	if len(results) != len(cells) {
		t.Fatalf("streamed %d results, want %d", len(results), len(cells))
	}
	line := gasperleak.SweepThroughput(results, time.Since(start))
	if !strings.Contains(line, "cells/sec") {
		t.Errorf("throughput line = %q", line)
	}
}

func TestClientScenariosAndCancellation(t *testing.T) {
	c, err := gasperleak.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	infos := c.Scenarios()
	if len(infos) == 0 {
		t.Fatal("Scenarios() is empty")
	}
	for _, info := range infos {
		if _, ok := c.Lookup(info.Name); !ok {
			t.Errorf("Scenarios() lists %q, which Lookup does not find", info.Name)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx, "leaksim", gasperleak.ScenarioParams{}); err == nil {
		t.Error("cancelled run must error")
	}
	results := c.Sweep(ctx, gasperleak.Table1Cells(1))
	if len(results) != 5 {
		t.Fatalf("cancelled sweep results = %d, want 5", len(results))
	}
	for i, r := range results {
		if !strings.Contains(r.Err, context.Canceled.Error()) {
			t.Errorf("cell %d: Err = %q, want context error", i, r.Err)
		}
	}
}
