package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/gasperleak"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/types"
)

// runLeakDeep: one deep sim/leak cell through the public client, repeated.
// The kernel (sim, beacon, forkchoice, attestation, ffg, incentives,
// blocktree compaction, network) does all the work; engine scheduling,
// warmstart, codec, store and server do none.
func runLeakDeep(e *env) error {
	sc := e.cfg.Scale
	cell := leakCell(sc.N, sc.LeakHorizon, e.cfg.Seed)
	if e.tr != nil {
		return traceLeakDeep(e, cell)
	}

	// Set-up is the client plus a shallow run of the same population: it
	// grows the heap to its working size and reaches the first compaction.
	warmHorizon := sc.LeakHorizon / 5
	if warmHorizon < 8 {
		warmHorizon = 8
	}
	warm := leakCell(sc.N, warmHorizon, e.cfg.Seed)
	var client *gasperleak.Client
	var setup samples
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		c, err := gasperleak.NewClient(gasperleak.WithWorkers(1))
		if err != nil {
			return err
		}
		res, err := c.Run(e.ctx, warm.Scenario, warm.Params)
		setup = append(setup, time.Since(start).Seconds())
		e.chk.op(mustKey(warm), res, err)
		client = c
	}
	e.set("setup_s", setup.stat("s", 1))

	var runs samples
	e.timedStart = readUsage()
	for i := 0; i < e.reps(); i++ {
		start := time.Now()
		res, err := client.Run(e.ctx, cell.Scenario, cell.Params)
		runs = append(runs, time.Since(start).Seconds())
		e.chk.op(mustKey(cell), res, err)
	}
	e.timedEnd = readUsage()
	e.set("epochs_per_s", runs.perSecond(float64(sc.LeakHorizon)))
	e.set("rep_wall_s", repWall(runs))
	return nil
}

// traceLeakDeep drives sim directly, slot by slot, with a span around every
// Step and probes of cloned layer objects at the sampled epochs. The direct
// drive is proved to be the same simulation the engine runs by comparing
// snapshot frames at the horizon.
func traceLeakDeep(e *env, cell engine.Cell) error {
	sc := e.cfg.Scale
	cs, p := checkpointable(cell)
	e.timedStart = readUsage()

	// The untraced references: the cell through the engine and through the
	// public client (their difference is the client's own overhead).
	start := time.Now()
	res, err := engine.RunContext(e.ctx, cell.Scenario, cell.Params)
	engineWall := time.Since(start).Seconds()
	e.chk.op(mustKey(cell), res, err)
	client, err := gasperleak.NewClient(gasperleak.WithWorkers(1))
	if err != nil {
		return err
	}
	start = time.Now()
	res, err = client.Run(e.ctx, cell.Scenario, cell.Params)
	clientWall := time.Since(start).Seconds()
	e.chk.op(mustKey(cell), res, err)
	e.value("gasperleak.run_overhead_ms", "ms", (clientWall-engineWall)*1e3)

	// OnEpoch fires inside a boundary-slot Step right after deliveries,
	// boundary processing and compaction: the public split point between
	// the boundary share of the step and the slot's ordinary duties.
	var boundaryEnd time.Time
	cfg := leakSimConfig(p)
	cfg.OnEpoch = func(*sim.Simulation, types.Epoch) { boundaryEnd = time.Now() }
	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	probe := map[int]bool{}
	for _, ep := range sc.ProbeEpochs {
		probe[ep] = true
	}
	pr := newProbes(e, s)
	// The root span belongs to the harness layer: its self time is the loop
	// and the probes' clones, not the simulator.
	root := e.tr.begin(-1, e.tr.newOp(), "harness.drive")
	var stepWall, boundaryWall, probeWall float64
	slots := uint64(sc.LeakHorizon) * cfg.Spec.SlotsPerEpoch
	for slot := uint64(0); slot < slots; slot++ {
		boundary := slot > 0 && slot%cfg.Spec.SlotsPerEpoch == 0
		name := "sim.step"
		if boundary {
			epoch := int(slot / cfg.Spec.SlotsPerEpoch)
			t := time.Now()
			pr.beforeBoundary(root, epoch, probe[epoch])
			probeWall += time.Since(t).Seconds()
			name = "sim.boundary_step"
		}
		id := e.tr.begin(root, 0, name)
		t := time.Now()
		if err := s.Step(); err != nil {
			return err
		}
		d := time.Since(t).Seconds()
		e.tr.end(id)
		stepWall += d
		if boundary {
			boundaryWall += d
			e.tr.add(id, 0, "sim.boundary", t, boundaryEnd)
		}
	}
	e.tr.end(root)
	e.timedEnd = readUsage()

	e.set("sim.step_ms", e.tr.durations("sim.step").ms())
	e.set("sim.boundary_step_ms", e.tr.durations("sim.boundary_step").ms())
	e.value("sim.boundary_share", "share", boundaryWall/stepWall)
	st := s.Stats()
	e.value("sim.tree_nodes", "count", float64(st.Tree.Nodes))
	e.value("sim.tree_folded", "count", float64(st.Tree.Folded))
	e.value("sim.engine_kb", "kB", float64(st.Engine.Bytes)/1e3)
	sent, dropped := s.Net.Stats()
	e.value("network.msgs_per_epoch", "count", float64(sent)/float64(sc.LeakHorizon))
	e.value("network.dropped", "count", float64(dropped))
	pr.report()
	e.value("trace.overhead_share", "share", (stepWall-engineWall)/engineWall)

	// Same simulation as the engine's: equal frames at the horizon.
	pre, err := cs.RunTo(e.ctx, p, nil, sc.LeakHorizon)
	if err != nil {
		return err
	}
	var direct, viaEngine bytes.Buffer
	if _, err := s.Snapshot().WriteTo(&direct); err != nil {
		return err
	}
	if _, err := pre.Snap.WriteTo(&viaEngine); err != nil {
		return err
	}
	e.chk.check(bytes.Equal(direct.Bytes(), viaEngine.Bytes()),
		"direct-drive frame at epoch %d (%d bytes) differs from engine RunTo's (%d bytes)", sc.LeakHorizon, direct.Len(), viaEngine.Len())
	fmt.Fprintf(e.cfg.Log, "  direct drive %.3fs of Step + %.3fs of probes; engine %.3fs; client %.3fs\n", stepWall, probeWall, engineWall, clientWall)
	return nil
}
