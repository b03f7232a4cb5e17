package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed harness→layer call. Name is "layer.call"; Parent is the
// index of the span that caused it (-1 for a root); spans of one op share Op.
type span struct {
	Name   string
	Parent int
	Op     int
	Start  time.Duration // since the tracer started
	End    time.Duration // < 0 while open
}

// tracer records spans in memory; nothing is written until the run ends. A
// nil tracer still times the call, so untraced and traced runs share code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh op identifier.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span under parent (-1 = root) and returns its index.
func (t *tracer) begin(parent, op int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (split points
// observed from inside a callback).
func (t *tracer) add(parent, op int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	t.mu.Unlock()
}

// call times f as one span and returns its wall time in seconds.
func (t *tracer) call(parent, op int, name string, f func()) float64 {
	id := t.begin(parent, op, name)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d.Seconds()
}

// durations returns the wall times, in seconds, of every span called name.
func (t *tracer) durations(name string) samples {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out samples
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// wellFormed checks the span tree: every span closed, parents recorded
// before children, children inside their parents.
func (t *tracer) wellFormed() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q never closed", i, s.Name)
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d %q names parent %d, not an earlier span", i, s.Name, s.Parent)
		}
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d %q [%v,%v] escapes parent %q [%v,%v]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
	}
	return nil
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Layer  string
	Count  int
	BusyMS float64
	// SelfMS is busy time minus the part of each span its children cover.
	SelfMS float64
}

// layerTable aggregates spans by the layer prefix of their names.
func (t *tracer) layerTable() []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]time.Duration)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	rows := map[string]*layerRow{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		r := rows[layer]
		if r == nil {
			r = &layerRow{Layer: layer}
			rows[layer] = r
		}
		busy := s.End - s.Start
		r.Count++
		r.BusyMS += busy.Seconds() * 1e3
		r.SelfMS += (busy - covered(children[i])).Seconds() * 1e3
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// covered is the length of the union of the intervals (children of one span
// may overlap when clients run concurrently).
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			total += x[1] - x[0]
			hi = x[1]
		} else if x[1] > hi {
			total += x[1] - hi
			hi = x[1]
		}
	}
	return total
}

func (t *tracer) printLayerTable(w io.Writer) {
	fmt.Fprintf(w, "  %-12s %8s %12s %12s\n", "layer", "spans", "busy ms", "self ms")
	for _, r := range t.layerTable() {
		fmt.Fprintf(w, "  %-12s %8d %12.3f %12.3f\n", r.Layer, r.Count, r.BusyMS, r.SelfMS)
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (load the file in
// chrome://tracing or ui.perfetto.dev): one complete event per span, the
// layer as category, the op as thread so one op's spans stack.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		events[i] = event{
			Name: s.Name, Cat: layer, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Op, Args: map[string]int{"span": i, "parent": s.Parent, "op_id": s.Op},
		}
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
