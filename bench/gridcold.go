package main

import (
	"time"

	"repro/internal/engine"
	"repro/internal/sim"
)

// runGridCold: the sweep grid computed from scratch, one worker, no warm
// start, no store. The same kernel as leak-deep used differently — one
// sim.New per cell and shallow pre-compaction epochs — so construction and
// early-epoch cost dominate; it is the bypass workload for every reuse tier.
func runGridCold(e *env) error {
	sc := e.cfg.Scale
	cells := gridCells(sc, sc.N, e.cfg.Seed)
	opt := engine.Options{Workers: 1}
	pass := func() float64 {
		start := time.Now()
		results := engine.SweepContext(e.ctx, cells, opt)
		wall := time.Since(start).Seconds()
		for i, r := range results {
			e.chk.op(mustKey(cells[i]), r, nil)
		}
		return wall
	}
	if e.tr != nil {
		return traceGridCold(e, cells, opt, pass)
	}

	// Set-up sweeps the three shallowest cells: enough to grow the heap to
	// the size one 10k-validator simulation needs.
	var setup samples
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		results := engine.SweepContext(e.ctx, cells[:3], opt)
		setup = append(setup, time.Since(start).Seconds())
		for j, r := range results {
			e.chk.op(mustKey(cells[j]), r, nil)
		}
	}
	e.set("setup_s", setup.stat("s", 1))

	var passes samples
	e.timedStart = readUsage()
	for i := 0; i < e.reps(); i++ {
		passes = append(passes, pass())
	}
	e.timedEnd = readUsage()
	e.set("cells_per_s", passes.perSecond(float64(len(cells))))
	e.set("rep_wall_s", repWall(passes))
	return nil
}

// traceGridCold streams one pass and records a span per cell from the
// engine's own per-cell duration, so the scheduling overhead is what is
// left of the pass.
func traceGridCold(e *env, cells []engine.Cell, opt engine.Options, pass func() float64) error {
	e.timedStart = readUsage()
	untraced := pass()

	op := e.tr.newOp()
	root := e.tr.begin(-1, op, "engine.sweep")
	start := time.Now()
	var cellMS samples
	sumMS := 0.0
	for u := range engine.SweepStream(e.ctx, cells, opt) {
		done := time.Now()
		e.chk.op(mustKey(cells[u.Index]), u.Result, nil)
		if u.Result.Meta == nil {
			continue
		}
		ms := u.Result.Meta.DurationMS
		cellMS = append(cellMS, ms/1e3)
		sumMS += ms
		e.tr.add(root, op, "engine.cell", done.Add(-time.Duration(ms*float64(time.Millisecond))), done)
	}
	traced := time.Since(start).Seconds()
	e.tr.end(root)

	// Construction cost at grid scale, on its own.
	var news samples
	for _, c := range cells[:3] {
		cfg := gstSimConfig(c.Params)
		var err error
		news = append(news, e.tr.call(-1, e.tr.newOp(), "sim.new", func() { _, err = sim.New(cfg) }))
		e.chk.check(err == nil, "sim.New: %v", err)
	}
	e.timedEnd = readUsage()

	e.set("engine.cell_ms", cellMS.ms())
	e.value("engine.sweep_overhead_ms", "ms", traced*1e3-sumMS)
	e.set("sim.new_ms", news.ms())
	e.value("trace.overhead_share", "share", (traced-untraced)/untraced)
	return nil
}
