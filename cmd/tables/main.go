// Command tables prints the paper's Tables 1-3, each comparing the paper's
// reported values with the analytic models and the exact integer
// simulation. Every table's scenario cells run through the engine registry
// over a parallel worker pool.
//
// Usage:
//
//	tables                       # all three tables
//	tables -table 2 -workers 8   # only Table 2, 8-way parallel rows
//	tables -table 1 -json        # Table 1's engine results as JSON
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/gasperleak"
)

func main() {
	table := flag.Int("table", 0, "table number (1, 2, 3); 0 = all")
	seed := flag.Int64("seed", 1, "seed for Table 1's Monte-Carlo scenario")
	workers := flag.Int("workers", 0, "worker pool size for the scenario sweeps (0 = all CPUs)")
	jsonOut := flag.Bool("json", false, "emit the engine sweep results as JSON instead of ASCII tables")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, *table, *seed, *workers, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, w io.Writer, table int, seed int64, workers int, jsonOut bool) error {
	if table < 0 || table > 3 {
		return fmt.Errorf("unknown table %d (want 1, 2, or 3)", table)
	}
	c, err := gasperleak.NewClient(gasperleak.WithWorkers(workers))
	if err != nil {
		return err
	}
	want := func(n int) bool { return table == 0 || table == n }
	if jsonOut {
		return runJSON(ctx, w, c, want, seed)
	}
	for n := 1; n <= 3; n++ {
		if !want(n) {
			continue
		}
		t, err := c.RenderTable(ctx, n, seed)
		if err != nil {
			return err
		}
		if err := t.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runJSON emits the engine results behind each requested table as one JSON
// array, in table order.
func runJSON(ctx context.Context, w io.Writer, c *gasperleak.Client, want func(int) bool, seed int64) error {
	var cells []gasperleak.SweepCell
	if want(1) {
		cells = append(cells, gasperleak.Table1Cells(seed)...)
	}
	for n := 2; n <= 3; n++ {
		if want(n) {
			cells = append(cells, gasperleak.TableCells(n)...)
		}
	}
	results := c.Sweep(ctx, cells)
	if err := gasperleak.SweepFirstError(results); err != nil {
		return err
	}
	return gasperleak.WriteSweepJSON(w, results)
}
