package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/engine"
)

// sweepColumn is one column of a sweep table: its header, and a result's
// cell in it with whether that result populates the column.
type sweepColumn struct {
	header string
	cell   func(engine.Result) (string, bool)
}

// sweepColumns lays a result set out: the scenario, the parameters as
// Params.Columns shows them, the outcome, the union of metric names (first
// appearance wins, so a homogeneous sweep keeps its scenario's order), then
// duration, throughput, warm start and error — each column kept when some
// result populates it.
func sweepColumns(results []engine.Result, format func(float64) string) []sweepColumn {
	cols := []sweepColumn{{"scenario", func(r engine.Result) (string, bool) { return r.Scenario, true }}}
	engine.Params{}.Columns(func(key, _ string, _ bool) {
		cols = append(cols, sweepColumn{key, func(r engine.Result) (value string, shown bool) {
			r.Params.Columns(func(k, v string, s bool) {
				if k == key {
					value, shown = v, s
				}
			})
			return value, shown
		}})
	})
	cols = append(cols, sweepColumn{"outcome", func(r engine.Result) (string, bool) { return r.Outcome, r.Outcome != "" }})
	seen := map[string]bool{}
	for _, r := range results {
		for _, m := range r.Metrics {
			if name := m.Name; !seen[name] {
				seen[name] = true
				cols = append(cols, sweepColumn{name, func(r engine.Result) (string, bool) {
					if v, ok := r.Metric(name); ok {
						return format(v), true
					}
					return "", false
				}})
			}
		}
	}
	cols = append(cols, sweepColumn{"ms", func(r engine.Result) (string, bool) {
		switch {
		case r.Meta != nil && r.Meta.Cached:
			return "cached", true
		case r.Meta != nil && r.Meta.DurationMS != 0:
			return fmt.Sprintf("%.3g", r.Meta.DurationMS), true
		}
		return "", false
	}}, sweepColumn{"ep/s", func(r engine.Result) (string, bool) {
		if r.Meta == nil || r.Meta.EpochsPerSec == 0 {
			return "", false
		}
		return fmt.Sprintf("%.4g", r.Meta.EpochsPerSec), true
	}}, sweepColumn{"warm", func(r engine.Result) (string, bool) {
		switch {
		case r.Meta == nil || r.Meta.Warm == nil:
			return "", false
		case r.Meta.Warm.Hit:
			return fmt.Sprintf("+%dep", r.Meta.Warm.EpochsSaved), true
		}
		return "cold", true
	}}, sweepColumn{"error", func(r engine.Result) (string, bool) { return r.Err, r.Err != "" }})
	// The zero result keeps p0, which every table shows.
	probe := append(slices.Clip(results), engine.Result{})
	return slices.DeleteFunc(cols, func(c sweepColumn) bool {
		return !slices.ContainsFunc(probe, func(r engine.Result) bool { _, ok := c.cell(r); return ok })
	})
}

// sweepRows renders the header row and then one row per result.
func sweepRows(results []engine.Result, format func(float64) string) [][]string {
	cols := sweepColumns(results, format)
	rows := make([][]string, 1+len(results))
	for _, c := range cols {
		rows[0] = append(rows[0], c.header)
		for i, r := range results {
			cell, _ := c.cell(r)
			rows[1+i] = append(rows[1+i], cell)
		}
	}
	return rows
}

// SweepTable renders sweep results as a fixed-width ASCII table. Parameter
// columns that are zero throughout the sweep are omitted; metric columns
// are the ordered union across all results.
func SweepTable(title string, results []engine.Result) *Table {
	rows := sweepRows(results, func(v float64) string { return fmt.Sprintf("%.6g", v) })
	t := &Table{Title: title, Headers: rows[0]}
	for _, row := range rows[1:] {
		t.AddRow(row...)
	}
	return t
}

// WriteSweepCSV emits sweep results as CSV with the same column layout as
// SweepTable.
func WriteSweepCSV(w io.Writer, title string, results []engine.Result) error {
	if title != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", title); err != nil {
			return err
		}
	}
	return csv.NewWriter(w).WriteAll(sweepRows(results, func(v float64) string { return fmt.Sprintf("%g", v) }))
}

// WriteSweepJSON emits sweep results as an indented JSON array of the
// engine's structured Result records (curves included): the bytes a
// json.Encoder indenting by two spaces writes for the slice. Each result
// is encoded and indented on its own, into two buffers reused from one
// result to the next, and written from there, so no copy of the whole
// output is held. A result that does not encode ends the output there.
func WriteSweepJSON(w io.Writer, results []engine.Result) error {
	if len(results) == 0 {
		return json.NewEncoder(w).Encode(results) // null or []
	}
	var raw, buf bytes.Buffer
	enc := json.NewEncoder(&raw)
	sep := "[\n  "
	for i := range results {
		raw.Reset()
		if err := enc.Encode(&results[i]); err != nil { // a pointer, so no copy of the result is boxed
			return err
		}
		buf.Reset()
		buf.WriteString(sep)
		if err := json.Indent(&buf, bytes.TrimSuffix(raw.Bytes(), []byte("\n")), "  ", "  "); err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
		sep = ",\n  "
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}

// SweepThroughput summarizes a sweep's pacing: cell count, wall-clock
// time, cells/sec, and the cumulative per-cell compute time (which exceeds
// the wall clock on a parallel sweep). Cells without duration metadata
// (cache hits, unfinished cells) count toward the total but not the
// compute time. It returns "" for an empty result set or a non-positive
// wall clock.
func SweepThroughput(results []engine.Result, wall time.Duration) string {
	if len(results) == 0 || wall <= 0 {
		return ""
	}
	var computeMS float64
	for _, r := range results {
		if r.Meta != nil && !r.Meta.Cached {
			computeMS += r.Meta.DurationMS
		}
	}
	rate := float64(len(results)) / wall.Seconds()
	return fmt.Sprintf("%d cells in %s (%.1f cells/sec, %s compute)",
		len(results), wall.Round(time.Millisecond),
		rate, (time.Duration(computeMS * float64(time.Millisecond))).Round(time.Millisecond))
}
