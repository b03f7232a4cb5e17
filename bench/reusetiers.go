package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/store"
)

// reuseFixture is what the "don't recompute" tiers read: a live prefix of
// the leak cell at the checkpoint epoch, a result store holding the whole
// grid, and an empty checkpoint store.
type reuseFixture struct {
	cells []engine.Cell
	keys  []string
	warm  engine.Options

	leak    engine.Cell
	leakKey string
	cs      engine.CheckpointableScenario
	p       engine.Params
	pre     *engine.Prefix
	// runToWall is the cost of simulating the prefix from genesis.
	runToWall float64

	resultsDir string
	ckptDir    string
	ckptStore  *store.Results
	ckpts      *store.Checkpoints
}

func (fx *reuseFixture) close() {
	if fx == nil {
		return
	}
	fx.ckptStore.Close() // nothing durable to lose: the directory goes next
	os.RemoveAll(fx.resultsDir)
	os.RemoveAll(fx.ckptDir)
}

func buildReuseFixture(e *env) (*reuseFixture, error) {
	sc := e.cfg.Scale
	fx := &reuseFixture{
		cells: gridCells(sc, sc.N, e.cfg.Seed),
		warm:  engine.Options{Workers: 1, WarmStart: &engine.WarmStartOptions{}},
		leak:  leakCell(sc.ResumeN, sc.ResumeHorizon, e.cfg.Seed),
	}
	for _, c := range fx.cells {
		fx.keys = append(fx.keys, mustKey(c))
	}
	fx.leakKey = mustKey(fx.leak)
	fx.cs, fx.p = checkpointable(fx.leak)

	start := time.Now()
	pre, err := fx.cs.RunTo(e.ctx, fx.p, nil, sc.ResumeAt)
	if err != nil {
		return nil, err
	}
	fx.pre, fx.runToWall = pre, time.Since(start).Seconds()
	// Encoding once sizes the heap for the frames the timed saves build.
	if err := fx.cs.EncodePrefix(&bytes.Buffer{}, pre); err != nil {
		return nil, err
	}

	// The grid is computed warm (the cold reference is grid-cold's job; two
	// cells are cold-checked below) and written through a result store.
	results := engine.SweepContext(e.ctx, fx.cells, fx.warm)
	if fx.resultsDir, err = e.mkdir("results-*"); err != nil {
		return nil, err
	}
	st, err := store.OpenResults(fx.resultsDir)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		e.chk.op(fx.keys[i], r, nil)
		if err := st.Put(fx.keys[i], r); err != nil {
			return nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}

	if fx.ckptDir, err = e.mkdir("ckpt-*"); err != nil {
		return nil, err
	}
	if fx.ckptStore, err = store.OpenResults(fx.ckptDir); err != nil {
		return nil, err
	}
	fx.ckpts = fx.ckptStore.Checkpoints()
	return fx, nil
}

// reuseWalls is one repetition's phase wall times, in seconds.
type reuseWalls struct {
	warm   float64
	stored samples // one per pass
	save   float64
	resume float64
	// storeStats are the last reopened store's counters.
	storeStats store.Stats
}

func (w reuseWalls) storedTotal() float64 {
	t := 0.0
	for _, s := range w.stored {
		t += s
	}
	return t
}

func (w reuseWalls) total() float64 { return w.warm + w.storedTotal() + w.save + w.resume }

// rep answers the same work through each tier in turn: (i) the grid with
// warm start on, (ii) the grid read back through a freshly reopened store,
// (iii) the leak cell's prefix encoded and saved as a durable checkpoint,
// (iv) the leak cell resumed from that checkpoint. (iii) is the write
// beside (ii) and (iv)'s reads, so a read-path gain paid for on the write
// path shows. tr is nil for an untraced repetition.
func (fx *reuseFixture) rep(e *env, tr *tracer) (reuseWalls, error) {
	sc := e.cfg.Scale
	op := tr.newOp()
	var w reuseWalls

	var results []engine.Result
	w.warm = tr.call(-1, op, "warmstart.sweep", func() { results = engine.SweepContext(e.ctx, fx.cells, fx.warm) })
	for i, r := range results {
		e.chk.op(fx.keys[i], r, nil)
	}

	stored := make([]engine.Result, len(fx.keys))
	for pass := 0; pass < sc.StoredPasses; pass++ {
		var openErr error
		hits := 0
		root := tr.begin(-1, op, "store.pass")
		start := time.Now()
		var st *store.Results
		tr.call(root, op, "store.open", func() { st, openErr = store.OpenResults(fx.resultsDir) })
		if openErr != nil {
			return w, openErr
		}
		for i, key := range fx.keys {
			tr.call(root, op, "store.get", func() {
				if r, ok := st.Get(key); ok {
					stored[i] = r
					hits++
				}
			})
		}
		w.storeStats = st.Stats()
		closeErr := st.Close()
		w.stored = append(w.stored, time.Since(start).Seconds())
		tr.end(root)
		e.chk.check(hits == len(fx.keys) && closeErr == nil, "stored pass: %d of %d cells hit, close: %v", hits, len(fx.keys), closeErr)
		for i, r := range stored {
			e.chk.op(fx.keys[i], r, nil)
		}
	}
	e.chk.check(w.storeStats.Corrupt == 0, "result store reports %d corrupt entries", w.storeStats.Corrupt)

	var saveErr error
	root := tr.begin(-1, op, "engine.checkpoint_save")
	start := time.Now()
	var blob bytes.Buffer
	tr.call(root, op, "engine.encode_prefix", func() { saveErr = fx.cs.EncodePrefix(&blob, fx.pre) })
	if saveErr == nil {
		tr.call(root, op, "store.ckpt_save", func() { saveErr = fx.ckpts.SaveCheckpoint(fx.leakKey, blob.Bytes()) })
	}
	w.save = time.Since(start).Seconds()
	tr.end(root)
	e.chk.check(saveErr == nil, "checkpoint save: %v", saveErr)

	// Probe + load + decode + adopt + the remaining epochs, and the final
	// checkpoint the runner writes on the way out (Every < 0 only turns the
	// periodic ones off).
	var res engine.Result
	var handled bool
	var runErr error
	w.resume = tr.call(-1, op, "engine.run_checkpointed", func() {
		res, handled, runErr = engine.RunCheckpointed(e.ctx, nil, fx.leak, &engine.CheckpointOptions{Every: -1, Store: fx.ckpts})
	})
	resumed := handled && res.Meta != nil && res.Meta.Checkpoint != nil &&
		res.Meta.Checkpoint.Resumed && res.Meta.Checkpoint.ResumeEpoch == sc.ResumeAt
	e.chk.expect(fx.leakKey, res, runErr, resumed, fmt.Sprintf("did not resume from the epoch-%d checkpoint", sc.ResumeAt))
	return w, nil
}

func runReuseTiers(e *env) error {
	if e.tr != nil {
		return traceReuseTiers(e)
	}
	var fx *reuseFixture
	defer func() { fx.close() }()
	var setup samples
	for i := 0; i < setupRounds; i++ {
		fx.close()
		start := time.Now()
		var err error
		if fx, err = buildReuseFixture(e); err != nil {
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	e.set("setup_s", setup.stat("s", 1))
	fx.coldReferences(e)

	var warm, stored, storedPhase, save, resume samples
	e.timedStart = readUsage()
	for i := 0; i < e.reps(); i++ {
		w, err := fx.rep(e, nil)
		if err != nil {
			return err
		}
		warm = append(warm, w.warm)
		stored = append(stored, w.stored...)
		storedPhase = append(storedPhase, w.storedTotal())
		save = append(save, w.save)
		resume = append(resume, w.resume)
	}
	e.timedEnd = readUsage()
	n := float64(len(fx.cells))
	e.set("warm_cells_per_s", warm.perSecond(n))
	e.set("stored_cells_per_s", stored.perSecond(n))
	e.set("checkpoint_save_ms", save.ms())
	e.set("resume_ms", resume.ms())
	e.set("rep_wall_s", repWall(warm, storedPhase, save, resume))
	return nil
}

// coldReferences computes, cold and outside every timer, the cells the
// tiers are checked against on any seed: the grid's first and last cell and
// the leak cell. (On the golden seed every cell is pinned anyway.)
func (fx *reuseFixture) coldReferences(e *env) {
	for _, i := range []int{0, len(fx.cells) - 1} {
		res, err := engine.RunContext(e.ctx, fx.cells[i].Scenario, fx.cells[i].Params)
		e.chk.op(fx.keys[i], res, err)
	}
	res, err := engine.RunContext(e.ctx, fx.leak.Scenario, fx.leak.Params)
	e.chk.op(fx.leakKey, res, err)
}

// traceReuseTiers runs one repetition with spans around every call into
// warmstart, store, codec, engine and sim, then times the pieces the
// repetition only reaches through RunCheckpointed (load, decode, adopt,
// clone) on their own.
func traceReuseTiers(e *env) error {
	sc := e.cfg.Scale
	fx, err := buildReuseFixture(e)
	if err != nil {
		return err
	}
	defer fx.close()
	fx.coldReferences(e)
	e.value("engine.runto_ms_per_epoch", "ms", fx.runToWall*1e3/float64(sc.ResumeAt))

	// An untraced repetition first, for the tracing overhead.
	tr := e.tr
	e.timedStart = readUsage()
	plain, err := fx.rep(e, nil)
	if err != nil {
		return err
	}
	traced, err := fx.rep(e, tr)
	if err != nil {
		return err
	}
	e.value("trace.overhead_share", "share", (traced.total()-plain.total())/plain.total())
	e.value("store.hits", "count", float64(traced.storeStats.Hits))
	e.value("store.misses", "count", float64(traced.storeStats.Misses))
	e.value("store.corrupt", "count", float64(traced.storeStats.Corrupt))
	e.value("store.bytes", "B", float64(traced.storeStats.Bytes))

	// warmstart: provenance from the cells' own metadata, and the wait for
	// the first cell (the spine is simulated before any cell is emitted).
	op := tr.newOp()
	root := tr.begin(-1, op, "warmstart.stream")
	start := time.Now()
	first := 0.0
	hits, saved := 0, 0
	var last *engine.WarmMeta
	streamed := make([]engine.Result, len(fx.cells))
	for u := range engine.SweepStream(e.ctx, fx.cells, fx.warm) {
		streamed[u.Index] = u.Result
		if first == 0 {
			first = time.Since(start).Seconds()
			tr.add(root, op, "warmstart.first_cell", start, time.Now())
		}
		e.chk.op(fx.keys[u.Index], u.Result, nil)
		if u.Result.Meta == nil || u.Result.Meta.Warm == nil {
			continue
		}
		wm := u.Result.Meta.Warm
		if wm.Hit {
			hits++
			saved += wm.EpochsSaved
		}
		if u.Completed == u.Total {
			last = wm
		}
	}
	tr.end(root)
	e.value("warmstart.first_cell_ms", "ms", first*1e3)
	e.value("warmstart.hit_share", "share", float64(hits)/float64(len(fx.cells)))
	e.value("warmstart.epochs_saved_share", "share", float64(saved)/float64(gridEpochs(fx.cells)))
	if last != nil {
		e.value("warmstart.prefix_nodes", "count", float64(last.PrefixNodes))
		e.value("warmstart.snapshot_hits", "count", float64(last.SnapshotHits))
		e.value("warmstart.rebuilt", "count", float64(last.Rebuilt))
		e.value("warmstart.peak_resident_mb", "MB", float64(last.PeakResidentBytes)/1e6)
	}

	// store: the write side of the result tier, into a fresh directory.
	putDir, err := e.mkdir("put-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(putDir)
	st, err := store.OpenResults(putDir)
	if err != nil {
		return err
	}
	op = tr.newOp()
	for i, key := range fx.keys {
		var putErr error
		tr.call(-1, op, "store.put", func() { putErr = st.Put(key, streamed[i]) })
		e.chk.check(putErr == nil, "store put: %v", putErr)
	}
	st.Close() // scratch directory, removed above

	// The resume path taken apart: load, decode, adopt; then the snapshot
	// primitives and each layer's clone on the simulation that yields.
	op = tr.newOp()
	var blob bytes.Buffer
	if err := fx.cs.EncodePrefix(&blob, fx.pre); err != nil {
		return err
	}
	if err := fx.ckpts.SaveCheckpoint(fx.leakKey, blob.Bytes()); err != nil {
		return err
	}
	var payload []byte
	var found bool
	tr.call(-1, op, "store.ckpt_load", func() { payload, found = fx.ckpts.LoadCheckpoint(fx.leakKey) })
	e.chk.check(found, "checkpoint just saved did not load")
	var decoded *engine.Prefix
	tr.call(-1, op, "engine.decode_prefix", func() { decoded, err = fx.cs.DecodePrefix(bytes.NewReader(payload)) })
	if err != nil {
		return err
	}
	var res engine.Result
	tr.call(-1, op, "engine.resume_from", func() { res, err = fx.cs.ResumeFrom(e.ctx, decoded, fx.p) })
	// ResumeFrom leaves the stamping to its caller, as Registry.RunContext
	// and RunCheckpointed do.
	res.Scenario, res.Params = fx.leak.Scenario, fx.p
	e.chk.op(fx.leakKey, res, err)

	var frame bytes.Buffer
	encodeS := tr.call(-1, op, "codec.encode", func() { _, err = fx.pre.Snap.WriteTo(&frame) })
	if err != nil {
		return err
	}
	frameMB := float64(frame.Len()) / 1e6
	var snap *sim.Snapshot
	tr.call(-1, op, "codec.decode", func() { snap, err = sim.ReadSnapshot(bytes.NewReader(frame.Bytes())) })
	if err != nil {
		return err
	}
	var live *sim.Simulation
	tr.call(-1, op, "sim.adopt", func() {
		if live, err = sim.NewShell(leakSimConfig(fx.p)); err == nil {
			err = live.Adopt(snap)
		}
	})
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		var taken *sim.Snapshot
		tr.call(-1, op, "sim.snapshot", func() { taken = live.Snapshot() })
		e.value("sim.snapshot_mb", "MB", float64(taken.Bytes())/1e6)
		tr.call(-1, op, "sim.restore", func() {
			var shell *sim.Simulation
			if shell, err = sim.NewShell(leakSimConfig(fx.p)); err == nil {
				err = shell.Restore(taken)
			}
		})
		if err != nil {
			return err
		}
		tr.call(-1, op, "network.clone", func() { live.Net.Clone() })
		for _, c := range live.Cohorts() {
			tr.call(-1, op, "beacon.clone", func() { c.Node.Clone() })
			tr.call(-1, op, "forkchoice.clone", func() { c.Node.Votes.CloneEngine() })
			tr.call(-1, op, "attestation.clone", func() { c.Node.Pool.Clone() })
			tr.call(-1, op, "validator.clone", func() { c.Node.Registry.Clone() })
			tr.call(-1, op, "blocktree.clone", func() { c.Node.Tree.Clone() })
		}
	}
	e.timedEnd = readUsage()

	ms := func(metric, spanName string) { e.set(metric, tr.durations(spanName).ms()) }
	ms("store.open_ms", "store.open")
	e.set("store.get_us", tr.durations("store.get").stat("us", 1e6))
	ms("store.put_ms", "store.put")
	ms("store.ckpt_save_ms", "store.ckpt_save")
	ms("store.ckpt_load_ms", "store.ckpt_load")
	ms("engine.encode_prefix_ms", "engine.encode_prefix")
	ms("engine.decode_prefix_ms", "engine.decode_prefix")
	ms("engine.resume_from_ms", "engine.resume_from")
	ms("codec.encode_ms", "codec.encode")
	ms("codec.decode_ms", "codec.decode")
	e.value("codec.frame_mb", "MB", frameMB)
	e.value("codec.encode_mb_per_s", "MB/s", frameMB/encodeS)
	ms("sim.adopt_ms", "sim.adopt")
	ms("sim.snapshot_ms", "sim.snapshot")
	ms("sim.restore_ms", "sim.restore")
	for _, layer := range []string{"network", "beacon", "forkchoice", "attestation", "validator", "blocktree"} {
		ms(layer+".clone_ms", layer+".clone")
	}
	return nil
}
