package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// serveClients is the closed-loop client count: each sends its next request
// when the previous one answered, over its own keep-alive connection. Two is
// the host's CPU count; the load never exceeds it.
const serveClients = 2

// violationEpoch is what every sim/partition miss must report: the default
// 16-validator partition finalizes conflicting checkpoints at epoch 26 on
// every seed.
const violationEpoch = 26

// serveFixture is a running server behind a real loopback listener with its
// LRU primed, plus the request bodies the clients send.
type serveFixture struct {
	srv      *server.Server
	ts       *httptest.Server
	storeDir string
	client   *http.Client

	primedKeys   []string
	primedBodies [][]byte

	sweepCells []engine.Cell
	sweepKeys  []string
	sweepBody  []byte

	// nextMiss numbers the distinct sim/partition cells; missBase spreads
	// workload seeds apart so no two runs of one server share a cell.
	nextMiss atomic.Int64
	missBase int64
}

func (fx *serveFixture) close() {
	if fx == nil {
		return
	}
	fx.ts.Close()
	fx.srv.Close() // scratch store, removed next
	os.RemoveAll(fx.storeDir)
}

// listen starts a server on a loopback port.
func listen(cfg server.Config) (*server.Server, *httptest.Server, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return srv, httptest.NewServer(srv.Handler()), nil
}

func buildServeFixture(e *env) (*serveFixture, error) {
	sc := e.cfg.Scale
	fx := &serveFixture{
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		missBase: (e.cfg.Seed%1_000_000)*1_000_000 + 1,
	}
	var err error
	if fx.storeDir, err = e.mkdir("serve-*"); err != nil {
		return nil, err
	}
	if fx.srv, fx.ts, err = listen(server.Config{Workers: serveClients, WarmStart: true, StoreDir: fx.storeDir}); err != nil {
		return nil, err
	}

	// The primed cells: closed-form conflict epochs over a p0 ladder from
	// 0.300 in steps of 0.005, cheap to compute so that priming is not the
	// set-up cost. One division per rung: a multiply-add could fuse on some
	// architectures and move the cell keys.
	for i := 0; i < sc.Primed; i++ {
		cell := engine.Cell{Scenario: engine.ScenarioAnalyticConflict, Params: engine.Params{P0: float64(300+5*i) / 1000}}
		body, err := json.Marshal(map[string]any{"scenario": cell.Scenario, "params": cell.Params})
		if err != nil {
			return nil, err
		}
		fx.primedKeys = append(fx.primedKeys, mustKey(cell))
		fx.primedBodies = append(fx.primedBodies, body)
		// In-process first, then over HTTP: the two paths must agree.
		direct, err := engine.RunContext(e.ctx, cell.Scenario, cell.Params)
		e.chk.op(fx.primedKeys[i], direct, err)
		res, err := fx.run(fx.ts.URL, body)
		e.chk.op(fx.primedKeys[i], res, err)
	}

	// The sweep is sent as explicit cells: a scenario + spec request with a
	// seed would derive one seed per horizon and defeat prefix sharing.
	fx.sweepCells = gridCells(sc, sc.ServeN, e.cfg.Seed)
	for _, c := range fx.sweepCells {
		fx.sweepKeys = append(fx.sweepKeys, mustKey(c))
	}
	if fx.sweepBody, err = json.Marshal(map[string]any{"cells": fx.sweepCells}); err != nil {
		return nil, err
	}
	return fx, nil
}

// run POSTs one /run body and decodes the result.
func (fx *serveFixture) run(base string, body []byte) (engine.Result, error) {
	resp, err := fx.client.Post(base+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return engine.Result{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return engine.Result{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return engine.Result{}, fmt.Errorf("POST /run: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var res engine.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return engine.Result{}, err
	}
	return res, nil
}

func cached(res engine.Result) bool { return res.Meta != nil && res.Meta.Cached }

// missBody builds the next distinct sim/partition request.
func (fx *serveFixture) missBody() (key string, body []byte, ordinal int64) {
	ordinal = fx.nextMiss.Add(1) - 1
	cell := engine.Cell{Scenario: engine.ScenarioSimPartition, Params: engine.Params{Seed: fx.missBase + ordinal}}
	body, err := json.Marshal(map[string]any{"scenario": cell.Scenario, "params": cell.Params})
	if err != nil {
		panic(err) // a two-field literal of marshalable types
	}
	return mustKey(cell), body, ordinal
}

// clients runs n requests split over the closed-loop clients and returns
// each request's latency plus the wall time of the whole phase.
func clients(tr *tracer, span string, n int, request func(client, i int)) (samples, float64) {
	var mu sync.Mutex
	var lat samples
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			op := tr.newOp()
			var own samples
			for i := c; i < n; i += serveClients {
				own = append(own, tr.call(-1, op, span, func() { request(c, i) }))
			}
			mu.Lock()
			lat = append(lat, own...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return lat, time.Since(start).Seconds()
}

// sweep POSTs the grid to base and reads the NDJSON stream, timing its
// first and last line.
func (fx *serveFixture) sweep(e *env, tr *tracer, base, span string) (first, last float64, err error) {
	op := tr.newOp()
	root := tr.begin(-1, op, span)
	defer tr.end(root)
	start := time.Now()
	resp, err := fx.client.Post(base+"/sweep", "application/json", bytes.NewReader(fx.sweepBody))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("POST /sweep: status %d", resp.StatusCode)
	}
	lines := bufio.NewReaderSize(resp.Body, 1<<20)
	seen := 0
	for {
		line, err := lines.ReadBytes('\n')
		if len(line) > 0 {
			if seen == 0 {
				first = time.Since(start).Seconds()
				tr.add(root, op, span+"_first_byte", start, time.Now())
			}
			seen++
			var u engine.Update
			if jerr := json.Unmarshal(line, &u); jerr != nil || u.Index < 0 || u.Index >= len(fx.sweepKeys) {
				return 0, 0, fmt.Errorf("POST /sweep: bad NDJSON line %d: %v", seen, jerr)
			}
			e.chk.op(fx.sweepKeys[u.Index], u.Result, nil)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
	}
	last = time.Since(start).Seconds()
	e.chk.check(seen == len(fx.sweepKeys), "/sweep streamed %d of %d cells", seen, len(fx.sweepKeys))
	return first, last, nil
}

// fetchMetrics reads GET /metrics into a generic document.
func (fx *serveFixture) fetchMetrics(base string) (map[string]any, error) {
	resp, err := fx.client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc map[string]any
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}

// counter digs a number out of a /metrics document.
func counter(doc map[string]any, path ...string) float64 {
	var cur any = doc
	for _, p := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = m[p]
	}
	v, _ := cur.(float64)
	return v
}

// mix sizes one repetition: request counts, whether its misses are the ones
// the golden file pins, and the tracer (nil = untraced).
type mix struct {
	hits, misses int
	golden       bool
	tr           *tracer
}

// serveWalls is one repetition's measurements.
type serveWalls struct {
	hit, miss                      samples // per request
	hitPhase, missPhase            float64
	sweepFirst, sweepLast, hopLast float64
	coordRemote, coordRequeued     float64
}

// rep is one traffic mix: LRU hits over the primed cells, distinct misses,
// the grid through a fresh server, and the grid through a coordinator over
// two fresh workers. HTTP, JSON, the LRU, admission and the coordinator hop
// do the work; the kernel is incidental (the misses are 16-validator cells,
// the sweeps ServeN-validator ones).
func (fx *serveFixture) rep(e *env, rng *rand.Rand, m mix) (serveWalls, error) {
	var w serveWalls

	// Request order is drawn from the workload seed before the clock starts.
	order := make([]int, m.hits)
	for i := range order {
		order[i] = rng.Intn(len(fx.primedBodies))
	}
	w.hit, w.hitPhase = clients(m.tr, "server.run_hit", m.hits, func(_, i int) {
		k := order[i]
		res, err := fx.run(fx.ts.URL, fx.primedBodies[k])
		e.chk.expect(fx.primedKeys[k], res, err, cached(res), "primed cell was not served from cache")
	})

	w.miss, w.missPhase = clients(m.tr, "server.run_miss", m.misses, func(_, _ int) {
		key, body, ordinal := fx.missBody()
		res, err := fx.run(fx.ts.URL, body)
		at, _ := res.Metric("violation_epoch")
		e.chk.bulkOp("miss", key, res, err, at == violationEpoch && !cached(res),
			fmt.Sprintf("violation_epoch = %v cached = %t, want %d computed", at, cached(res), violationEpoch),
			m.golden && ordinal < int64(m.misses))
	})

	// A fresh server per sweep: a second sweep of one server is all LRU hits.
	dir, err := e.mkdir("sweep-*")
	if err != nil {
		return w, err
	}
	defer os.RemoveAll(dir)
	srv, ts, err := listen(server.Config{Workers: serveClients, WarmStart: true, StoreDir: dir})
	if err != nil {
		return w, err
	}
	w.sweepFirst, w.sweepLast, err = fx.sweep(e, m.tr, ts.URL, "server.sweep")
	ts.Close()
	srv.Close() // scratch store
	if err != nil {
		return w, err
	}

	var shards []string
	for i := 0; i < serveClients; i++ {
		_, wts, err := listen(server.Config{Workers: 1})
		if err != nil {
			return w, err
		}
		defer wts.Close()
		shards = append(shards, wts.URL)
	}
	_, coord, err := listen(server.Config{Workers: serveClients, WarmStart: true, Shards: shards})
	if err != nil {
		return w, err
	}
	defer coord.Close()
	if _, w.hopLast, err = fx.sweep(e, m.tr, coord.URL, "server.hop_sweep"); err != nil {
		return w, err
	}
	doc, err := fx.fetchMetrics(coord.URL)
	if err != nil {
		return w, err
	}
	w.coordRemote = counter(doc, "coordinator", "cells_remote")
	w.coordRequeued = counter(doc, "coordinator", "cells_requeued")
	e.chk.check(w.coordRemote == float64(len(fx.sweepCells)) && w.coordRequeued == 0,
		"coordinator computed %v cells remotely and requeued %v, want %d and 0", w.coordRemote, w.coordRequeued, len(fx.sweepCells))
	return w, nil
}

func (w serveWalls) total() float64 {
	return w.hitPhase + w.missPhase + w.sweepLast + w.hopLast
}

func runServeMix(e *env) error {
	if e.tr != nil {
		return traceServeMix(e)
	}
	sc := e.cfg.Scale
	rng := rand.New(rand.NewSource(e.cfg.Seed))

	// Set-up builds and primes the server, then sends a twentieth of a
	// repetition's requests so connections, caches and the heap are warm.
	var fx *serveFixture
	defer func() { fx.close() }()
	var setup samples
	for i := 0; i < setupRounds; i++ {
		fx.close()
		start := time.Now()
		var err error
		if fx, err = buildServeFixture(e); err != nil {
			return err
		}
		if _, err := fx.rep(e, rng, mix{hits: sc.Hits/20 + serveClients, misses: sc.Misses/20 + serveClients}); err != nil {
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	e.set("setup_s", setup.stat("s", 1))
	// The sweep's cold reference, in-process, for the cross-path identity.
	cold := engine.SweepContext(e.ctx, fx.sweepCells, engine.Options{Workers: serveClients})
	for i, r := range cold {
		e.chk.op(fx.sweepKeys[i], r, nil)
	}
	// Renumber the misses from zero past the seeds the warm-up used: the
	// first Misses of the timed section are the ones the golden file pins.
	fx.missBase += fx.nextMiss.Swap(0)

	var hit, miss, hitPhase, missPhase, sweepFirst, sweepLast, hopLast samples
	e.timedStart = readUsage()
	for i := 0; i < e.reps(); i++ {
		w, err := fx.rep(e, rng, mix{hits: sc.Hits, misses: sc.Misses, golden: true})
		if err != nil {
			return err
		}
		hit = append(hit, w.hit...)
		miss = append(miss, w.miss...)
		hitPhase = append(hitPhase, w.hitPhase)
		missPhase = append(missPhase, w.missPhase)
		sweepFirst = append(sweepFirst, w.sweepFirst)
		sweepLast = append(sweepLast, w.sweepLast)
		hopLast = append(hopLast, w.hopLast)
	}
	e.timedEnd = readUsage()
	e.set("run_hit_ms", hit.ms())
	e.set("run_miss_ms", miss.ms())
	e.set("sweep_first_byte_ms", sweepFirst.ms())
	e.set("sweep_last_byte_ms", sweepLast.ms())
	e.set("hop_sweep_last_byte_ms", hopLast.ms())
	e.set("rep_wall_s", repWall(hitPhase, missPhase, sweepLast, hopLast))
	return nil
}

// traceServeMix runs one repetition with a span per request, then the same
// requests against the handler alone (no socket), and reads the server's
// own counters.
func traceServeMix(e *env) error {
	sc := e.cfg.Scale
	rng := rand.New(rand.NewSource(e.cfg.Seed))
	fx, err := buildServeFixture(e)
	if err != nil {
		return err
	}
	defer fx.close()

	tr := e.tr
	e.timedStart = readUsage()
	plain, err := fx.rep(e, rng, mix{hits: sc.Hits, misses: sc.Misses})
	if err != nil {
		return err
	}
	traced, err := fx.rep(e, rng, mix{hits: sc.Hits, misses: sc.Misses, tr: tr})
	if err != nil {
		return err
	}
	e.value("trace.overhead_share", "share", (traced.total()-plain.total())/plain.total())
	e.value("server.coord_cells_remote", "count", traced.coordRemote)
	e.value("server.coord_requeued", "count", traced.coordRequeued)

	handler := fx.srv.Handler()
	serve := func(span string, body []byte) (engine.Result, error) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body))
		tr.call(-1, 0, span, func() { handler.ServeHTTP(rec, req) })
		var res engine.Result
		if rec.Code != http.StatusOK {
			return res, fmt.Errorf("handler: status %d", rec.Code)
		}
		return res, json.Unmarshal(rec.Body.Bytes(), &res)
	}
	for i := 0; i < sc.Hits; i++ {
		k := rng.Intn(len(fx.primedBodies))
		res, err := serve("server.handler_hit", fx.primedBodies[k])
		e.chk.expect(fx.primedKeys[k], res, err, cached(res), "primed cell was not served from cache")
	}
	for i := 0; i < sc.Misses/4+1; i++ {
		key, body, _ := fx.missBody()
		res, err := serve("server.handler_miss", body)
		at, _ := res.Metric("violation_epoch")
		e.chk.bulkOp("miss", key, res, err, at == violationEpoch && !cached(res), "handler miss did not compute violation_epoch 26", false)
	}

	doc, err := fx.fetchMetrics(fx.ts.URL)
	if err != nil {
		return err
	}
	e.value("server.cells_computed", "count", counter(doc, "cells", "computed"))
	e.value("server.cells_from_lru", "count", counter(doc, "cells", "from_lru"))
	e.value("server.cells_from_store", "count", counter(doc, "cells", "from_store"))
	e.value("server.rejected", "count", counter(doc, "queue", "rejected"))
	e.chk.check(counter(doc, "queue", "rejected") == 0, "server refused %v requests", counter(doc, "queue", "rejected"))

	// The engine calls on every request's path, on their own.
	spec := fmt.Sprintf("gst=%d,%d; horizon=%d:%d:1", sc.GridGSTs[0], sc.GridGSTs[1], sc.GridHorizons[0], sc.GridHorizons[len(sc.GridHorizons)-1])
	paramsDoc := []byte(`{"p0":0.5,"n":1000,"horizon":16,"gst":30,"seed":7}`)
	calls := sc.ProbeCalls
	perCall := func(span string, f func()) float64 {
		return tr.call(-1, 0, span, func() {
			for i := 0; i < calls; i++ {
				f()
			}
		}) / float64(calls)
	}
	e.value("engine.parse_grid_us", "us", 1e6*perCall("engine.parse_grid", func() { _, _ = engine.ParseGrid(engine.ScenarioSimGST, spec) }))
	e.value("engine.cell_key_us", "us", 1e6*perCall("engine.cell_key", func() { engine.CanonicalCellKey(nil, fx.sweepCells[0]) }))
	e.value("engine.params_decode_us", "us", 1e6*perCall("engine.params_decode", func() { _, _ = engine.DecodeParams(paramsDoc) }))
	e.timedEnd = readUsage()

	hit := tr.durations("server.handler_hit")
	e.set("server.handler_hit_us", hit.stat("us", 1e6))
	e.set("server.handler_miss_ms", tr.durations("server.handler_miss").ms())
	e.value("server.http_overhead_us", "us", 1e6*(tr.durations("server.run_hit").median()-hit.median()))
	return nil
}
