package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// fabricWorker is one worker process of a test fabric, optionally rigged
// to crash: it writes killAfter NDJSON lines and aborts the connection on
// which the next one is due — mid-unit, if the unit is longer — and every
// connection after it, which is what a killed process looks like to the
// coordinator.
type fabricWorker struct {
	ts        *httptest.Server
	srv       *Server
	killAfter int64 // NDJSON lines served before crashing; negative = reliable
	lines     atomic.Int64
	crashed   atomic.Bool
}

// dyingWriter passes a sweep handler's NDJSON lines through (json.Encoder:
// one Write each) until the worker's last; at the line it does not live to
// write it cancels the request, so the handler stops computing, and swallows
// the rest.
type dyingWriter struct {
	http.ResponseWriter
	fw     *fabricWorker
	cancel context.CancelFunc
}

func (d *dyingWriter) Write(b []byte) (int, error) {
	if d.fw.lines.Add(1) > d.fw.killAfter {
		d.fw.crashed.Store(true)
		d.cancel()
		return len(b), nil
	}
	return d.ResponseWriter.Write(b)
}

func (d *dyingWriter) Flush() {
	if !d.fw.crashed.Load() {
		d.ResponseWriter.(http.Flusher).Flush()
	}
}

// newFabricWorker starts a worker over cfg (result cache off: a worker
// recomputes whatever it is sent).
func newFabricWorker(t *testing.T, cfg Config, killAfter int64) *fabricWorker {
	t.Helper()
	cfg.CacheSize = -1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fw := &fabricWorker{srv: s, killAfter: killAfter}
	h := s.Handler()
	fw.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/sweep" || fw.killAfter < 0 {
			h.ServeHTTP(w, r)
			return
		}
		if fw.lines.Load() >= fw.killAfter {
			fw.crashed.Store(true)
		} else {
			ctx, cancel := context.WithCancel(r.Context())
			defer cancel()
			h.ServeHTTP(&dyingWriter{w, fw, cancel}, r.WithContext(ctx))
		}
		if fw.crashed.Load() {
			panic(http.ErrAbortHandler) // the "process" is gone mid-request
		}
	}))
	t.Cleanup(fw.ts.Close)
	return fw
}

// fabricCells builds an n-cell grid of the counted scenario.
func fabricCells(n int) []engine.Cell {
	cells := make([]engine.Cell, n)
	for i := range cells {
		cells[i] = engine.Cell{Scenario: "counted", Params: engine.Params{Seed: int64(i + 1)}}
	}
	return cells
}

// forkableGrid is a real shared-prefix grid: sim/gst at 64 validators, 2
// GSTs x 6 horizons. The GST is not part of the prefix key, so the twelve
// cells are one prefix group — one unit of a warm coordinator — in which the
// gst=30 cells are stops of the spine and the gst=3 cells fork off it.
func forkableGrid() []engine.Cell {
	return engine.Grid{
		Scenario: "sim/gst",
		P0:       []float64{0.5},
		GSTs:     []int{3, 30},
		Horizons: []int{4, 5, 6, 7, 8, 9},
		N:        64,
	}.Cells()
}

// coordMetrics fetches the coordinator block of GET /metrics.
func coordMetrics(t *testing.T, url string) (metricsResponse, *coordinatorMetrics) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Coordinator == nil {
		t.Fatal("/metrics carries no coordinator block")
	}
	return m, m.Coordinator
}

// checkFabricSweep posts the cells to the coordinator and asserts the
// acceptance criteria: no client-visible errors, deterministic cell-order
// stream, payload bit-identical to a single-process sweep.
func checkFabricSweep(t *testing.T, coordURL string, cells []engine.Cell, want []engine.Result) []engine.Update {
	t.Helper()
	updates := decodeNDJSON(t, postJSON(t, coordURL+"/sweep", map[string]any{"cells": cells}))
	if len(updates) != len(cells) {
		t.Fatalf("streamed %d updates, want %d", len(updates), len(cells))
	}
	got := make([]engine.Result, len(cells))
	for pos, u := range updates {
		if u.Index != pos {
			t.Errorf("update %d carries index %d; coordinator streams must be in cell order", pos, u.Index)
		}
		if u.Result.Err != "" {
			t.Errorf("cell %d surfaced an error to the client: %s", u.Index, u.Result.Err)
		}
		got[u.Index] = u.Result
	}
	if !reflect.DeepEqual(engine.StripMeta(got), engine.StripMeta(want)) {
		t.Error("sharded sweep payload diverges from single-process sweep")
	}
	return updates
}

// TestCoordinatorShardsSweep: the happy path — every cell computed by a
// remote worker, merged bit-identically in cell order.
func TestCoordinatorShardsSweep(t *testing.T) {
	var runs atomic.Int64
	reg := countedRegistry(&runs)
	cells := fabricCells(8)
	want := engine.SweepContext(context.Background(), cells, engine.Options{Registry: reg})
	runs.Store(0)

	w1 := newFabricWorker(t, Config{Registry: reg}, -1)
	w2 := newFabricWorker(t, Config{Registry: reg}, -1)
	coord, ts := storeServer(t, Config{
		Registry:  reg,
		CacheSize: -1,
		Shards:    []string{w1.ts.URL, w2.ts.URL},
	})

	checkFabricSweep(t, ts.URL, cells, want)
	if got := runs.Load(); got != int64(len(cells)) {
		t.Errorf("fabric ran %d cells, want %d", got, len(cells))
	}
	if got := coord.metrics.cellsRemote.Load(); got != uint64(len(cells)) {
		t.Errorf("cells_remote = %d, want %d — every cell should be computed remotely", got, len(cells))
	}
	if st := coord.coord.stats(); st[0].Served == 0 || st[1].Served == 0 {
		t.Errorf("dispatch skipped a worker: served %d / %d", st[0].Served, st[1].Served)
	}
	if lost := coord.metrics.workersLost.Load(); lost != 0 {
		t.Errorf("workers_lost = %d with reliable workers", lost)
	}
}

// TestCoordinatorFaultInjection is the randomized acceptance test: across
// trials with random worker counts, a random worker is killed after a
// random number of NDJSON lines mid-sweep; the merged payload must stay
// bit-identical to a single-process sweep with zero client-visible errors,
// for every failure schedule. Trials alternate two grids: the counted
// scenario swept cold, where every cell is a unit of one and the worker dies
// between requests, and forkableGrid swept warm, where the whole grid is one
// streamed unit and the worker dies k lines into it — only the cells its
// stream had not delivered may be computed again. The last pair of trials is
// the sole worker dying, once per grid: the local fallback.
func TestCoordinatorFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(0xfab41c))
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		workers := 1 + rng.Intn(3)
		if trial >= trials-2 {
			workers = 1
		}
		killIdx := rng.Intn(workers)

		var runs atomic.Int64
		reg := countedRegistry(&runs)
		cells := fabricCells(10)
		killAfter := int64(rng.Intn(4))
		streamed := trial%2 == 1
		if streamed {
			reg = engine.Default
			cells = forkableGrid()
			killAfter = int64(rng.Intn(len(cells)))
		}
		t.Logf("trial %d: %d workers, worker %d dies after %d lines, streamed units: %t", trial, workers, killIdx, killAfter, streamed)
		want := engine.SweepContext(context.Background(), cells, engine.Options{Registry: reg})

		shards := make([]string, workers)
		pool := make([]*fabricWorker, workers)
		for i := range pool {
			after := int64(-1)
			if i == killIdx {
				after = killAfter
			}
			pool[i] = newFabricWorker(t, Config{Registry: reg}, after)
			shards[i] = pool[i].ts.URL
		}
		_, ts := storeServer(t, Config{Registry: reg, CacheSize: -1, Shards: shards, WarmStart: streamed})

		checkFabricSweep(t, ts.URL, cells, want)
		m, cm := coordMetrics(t, ts.URL)
		// The rigged worker crashes only if dispatch actually sent it more
		// than killAfter cells; when it did, the coordinator must have
		// retired it and requeued exactly what its stream had not delivered.
		crashed := pool[killIdx].crashed.Load()
		if crashed && cm.Lost != 1 {
			t.Errorf("trial %d: workers_lost = %d, want exactly the rigged one", trial, cm.Lost)
		} else if !crashed && cm.Lost != 0 {
			t.Errorf("trial %d: workers_lost = %d with no crash", trial, cm.Lost)
		}
		if crashed && cm.Requeued == 0 {
			t.Errorf("trial %d: no cell was requeued off the dead worker", trial)
		}
		// Every cell was computed once, by a worker or by the fallback: a
		// cell delivered before the crash is never asked for again.
		if got := cm.Remote + m.Cells.Computed; got != uint64(len(cells)) {
			t.Errorf("trial %d: %d remote + %d local cells, want %d in all", trial, cm.Remote, m.Cells.Computed, len(cells))
		}
		if workers == 1 && m.Cells.Computed == 0 {
			t.Errorf("trial %d: the sole worker died and the coordinator computed nothing itself", trial)
		}
		if streamed {
			if cm.Units > 2 {
				t.Errorf("trial %d: %d requests for one prefix group and one requeue", trial, cm.Units)
			}
			// The grid is one unit and the rigged worker serves nothing after
			// its crash: what it served, its aborted stream delivered.
			if delivered := cm.Workers[killIdx].Served; crashed && delivered+cm.Requeued != uint64(len(cells)) {
				t.Errorf("trial %d: aborted stream delivered %d cells and %d were requeued, want %d together",
					trial, delivered, cm.Requeued, len(cells))
			}
		}
	}
}

// drainingWriter passes a sweep handler's NDJSON lines through and cancels
// the worker's base context once the after-th line is written: the worker is
// shutting down mid-unit while its connection stays open.
type drainingWriter struct {
	http.ResponseWriter
	lines, after int
	cancel       context.CancelFunc
}

func (d *drainingWriter) Write(b []byte) (int, error) {
	n, err := d.ResponseWriter.Write(b)
	if d.lines++; d.lines == d.after {
		d.cancel()
	}
	return n, err
}

func (d *drainingWriter) Flush() { d.ResponseWriter.(http.Flusher).Flush() }

// TestCoordinatorDrainingWorkerCellsAreRequeued: a worker whose base context
// ends mid-unit stops its stream instead of answering its unfinished cells
// with "context canceled", so the coordinator requeues them like any cell a
// short stream did not deliver and the merged payload is the single-process
// one.
func TestCoordinatorDrainingWorkerCellsAreRequeued(t *testing.T) {
	cells := forkableGrid()
	want := engine.SweepContext(context.Background(), cells, engine.Options{})

	s, err := New(Config{CacheSize: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	h := s.Handler()
	w := httptest.NewUnstartedServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&drainingWriter{ResponseWriter: rw, after: 1, cancel: cancelBase}, r)
	}))
	w.Config.BaseContext = func(net.Listener) context.Context { return base }
	w.Start()
	defer w.Close()
	_, ts := storeServer(t, Config{CacheSize: -1, WarmStart: true, Shards: []string{w.URL}})

	checkFabricSweep(t, ts.URL, cells, want) // no cell may surface an error, a cancellation least of all
	_, cm := coordMetrics(t, ts.URL)
	delivered := cm.Workers[0].Served
	if cm.Requeued == 0 || delivered+cm.Requeued != uint64(len(cells)) {
		t.Errorf("the draining worker delivered %d cells and %d were requeued, want some requeued and %d together",
			delivered, cm.Requeued, len(cells))
	}
}

// TestCoordinatorAllWorkersDeadFallsBackLocal: a total worker outage
// degrades throughput, not correctness — the coordinator finishes the grid
// in-process, and stays correct on the next sweep too (dead workers are
// remembered across requests).
func TestCoordinatorAllWorkersDeadFallsBackLocal(t *testing.T) {
	var runs atomic.Int64
	reg := countedRegistry(&runs)
	cells := fabricCells(6)
	want := engine.SweepContext(context.Background(), cells, engine.Options{Registry: reg})

	dead := newFabricWorker(t, Config{Registry: reg}, 0) // crashes on its first cell
	coord, ts := storeServer(t, Config{Registry: reg, CacheSize: -1, Shards: []string{dead.ts.URL}})

	checkFabricSweep(t, ts.URL, cells, want)
	if lost := coord.metrics.workersLost.Load(); lost != 1 {
		t.Errorf("workers_lost = %d, want 1", lost)
	}
	// Second sweep: no alive workers from the start, straight to local.
	checkFabricSweep(t, ts.URL, cells, want)
	if remote := coord.metrics.cellsRemote.Load(); remote != 0 {
		t.Errorf("cells_remote = %d after a total outage, want 0", remote)
	}
}

// TestQueueFullRejects: a request that would exceed the admission bound is
// refused with 429 + Retry-After instead of queued without limit, and the
// slots are released when the admitted work finishes.
func TestQueueFullRejects(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	reg := engine.NewRegistry()
	reg.MustRegister(engine.NewScenario("gate", "blocks until released",
		engine.Params{P0: 0.5}, engine.FieldAll,
		func(ctx context.Context, p engine.Params) (engine.Result, error) {
			started <- struct{}{}
			select {
			case <-ctx.Done():
				return engine.Result{}, ctx.Err()
			case <-release:
				return engine.Result{}, nil
			}
		}))
	// Workers: 2 so both gate cells block concurrently even on one CPU.
	s, ts := storeServer(t, Config{Registry: reg, CacheSize: -1, QueueDepth: 2, Workers: 2})

	sweepDone := make(chan []engine.Update, 1)
	go func() {
		body := map[string]any{"cells": []engine.Cell{
			{Scenario: "gate", Params: engine.Params{Seed: 1}},
			{Scenario: "gate", Params: engine.Params{Seed: 2}},
		}}
		sweepDone <- decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", body))
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("gated sweep never started")
		}
	}

	resp := postJSON(t, ts.URL+"/run", map[string]any{"scenario": "gate", "params": engine.Params{Seed: 3}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 while the queue is full", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}
	if got := s.metrics.rejected.Load(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}

	close(release)
	select {
	case updates := <-sweepDone:
		if len(updates) != 2 {
			t.Errorf("gated sweep streamed %d updates, want 2", len(updates))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gated sweep never finished")
	}
	if depth := s.metrics.admitted.Load(); depth != 0 {
		t.Errorf("admitted = %d after the sweep drained, want 0", depth)
	}
}

// TestBodyLimitRejects: an oversized request body is refused with 413.
func TestBodyLimitRejects(t *testing.T) {
	_, ts := storeServer(t, Config{MaxBodyBytes: 128})

	big := map[string]any{"scenario": strings.Repeat("x", 256), "params": engine.Params{}}
	resp := postJSON(t, ts.URL+"/run", big)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 for an oversized body", resp.StatusCode)
	}

	small := map[string]any{"scenario": "nope"}
	resp2 := postJSON(t, ts.URL+"/run", small)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want the limit to pass a small body through", resp2.StatusCode)
	}
}

// TestMetricsEndpoint: GET /metrics reports the tier counters, queue
// state, per-scenario timing, and (in coordinator mode) the worker ledger.
func TestMetricsEndpoint(t *testing.T) {
	var runs atomic.Int64
	reg := countedRegistry(&runs)
	w := newFabricWorker(t, Config{Registry: reg}, -1)
	_, ts := storeServer(t, Config{
		Registry: reg,
		StoreDir: t.TempDir(),
		Shards:   []string{w.ts.URL},
	})

	cells := fabricCells(3)
	decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", map[string]any{"cells": cells}))
	decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", map[string]any{"cells": cells})) // all cached now

	m, cm := coordMetrics(t, ts.URL)
	if m.Cells.FromLRU != 3 {
		t.Errorf("cells.from_lru = %d, want the repeat sweep served from memory", m.Cells.FromLRU)
	}
	if m.Queue.Limit != DefaultQueueDepth || m.Queue.Depth != 0 {
		t.Errorf("queue = %+v, want default limit and a drained depth", m.Queue)
	}
	if m.Store == nil || m.Store.Puts != 3 {
		t.Errorf("store = %+v, want 3 persisted cells", m.Store)
	}
	if cm.Remote != 3 || len(cm.Workers) != 1 || cm.Workers[0].Served != 3 {
		t.Errorf("coordinator = %+v, want 3 remote cells on 1 worker", cm)
	}
	// A cold sweep ships a cell per request, and the repeat sweep — all
	// cached — ships none; nothing is in flight once the stream has closed.
	if cm.Units != 3 || cm.Inflight != 0 {
		t.Errorf("coordinator units_dispatched = %d inflight = %d, want 3 requests and none open", cm.Units, cm.Inflight)
	}
	// The worker computed the cells, so the coordinator's own computed
	// counter stays zero while the scenario map stays empty.
	if m.Cells.Computed != 0 {
		t.Errorf("cells.computed = %d on the coordinator, want 0", m.Cells.Computed)
	}
}

// TestCoordinatorWarmSweepSharesPrefix: a warm coordinator ships a prefix
// group as one request, so the worker that gets it simulates the shared
// prefix once — every cell a warm hit, the epochs saved those of a
// single-process warm sweep — where the same grid swept cold is a request
// per cell spread over both workers. The sharing is read off the
// coordinator's own /metrics (cells_remote over units_dispatched).
func TestCoordinatorWarmSweepSharesPrefix(t *testing.T) {
	cells := forkableGrid()
	want := engine.SweepContext(context.Background(), cells, engine.Options{})
	wantSaved := 0
	for _, r := range engine.SweepContext(context.Background(), cells, engine.Options{WarmStart: &engine.WarmStartOptions{}}) {
		wantSaved += r.Meta.Warm.EpochsSaved
	}

	fabric := func() string {
		w1 := newFabricWorker(t, Config{}, -1)
		w2 := newFabricWorker(t, Config{}, -1)
		_, ts := storeServer(t, Config{CacheSize: -1, WarmStart: true, Shards: []string{w1.ts.URL, w2.ts.URL}})
		return ts.URL
	}

	url := fabric()
	saved := 0
	for _, u := range checkFabricSweep(t, url, cells, want) {
		wm := u.Result.Meta.Warm
		if wm == nil || !wm.Hit {
			t.Fatalf("cell %d meta.warm = %+v, want a hit on the unit's shared prefix", u.Index, wm)
		}
		saved += wm.EpochsSaved
	}
	if saved != wantSaved {
		t.Errorf("fabric saved %d epochs, the single-process warm sweep %d", saved, wantSaved)
	}
	if _, cm := coordMetrics(t, url); cm.Units != 1 || cm.Remote != uint64(len(cells)) {
		t.Errorf("warm: %d cells over %d requests, want all %d in one", cm.Remote, cm.Units, len(cells))
	}

	url = fabric()
	body := map[string]any{"cells": cells, "warm": false}
	for _, u := range decodeNDJSON(t, postJSON(t, url+"/sweep", body)) {
		if !reflect.DeepEqual(u.Result.WithoutMeta(), want[u.Index].WithoutMeta()) {
			t.Errorf("cold cell %d diverges from the single-process sweep", u.Index)
		}
		if u.Result.Meta.Warm != nil {
			t.Errorf("cold cell %d carries warm meta %+v", u.Index, u.Result.Meta.Warm)
		}
	}
	_, cm := coordMetrics(t, url)
	if cm.Units != uint64(len(cells)) || cm.Remote != uint64(len(cells)) {
		t.Errorf("cold: %d cells over %d requests, want a request per cell", cm.Remote, cm.Units)
	}
	if cm.Workers[0].Served == 0 || cm.Workers[1].Served == 0 {
		t.Errorf("cold dispatch skipped a worker: served %d / %d", cm.Workers[0].Served, cm.Workers[1].Served)
	}
}

// gateRegistry adds to the counted scenario one that blocks until released
// (started receives once per run that has begun).
func gateRegistry(runs *atomic.Int64, started chan<- struct{}, release <-chan struct{}) *engine.Registry {
	reg := countedRegistry(runs)
	reg.MustRegister(engine.NewScenario("gate", "blocks until released",
		engine.Params{P0: 0.5}, engine.FieldAll,
		func(ctx context.Context, p engine.Params) (engine.Result, error) {
			started <- struct{}{}
			select {
			case <-ctx.Done():
				return engine.Result{}, ctx.Err()
			case <-release:
				return engine.Result{}, nil
			}
		}))
	return reg
}

// TestCoordinatorBusyWorkerIsNotRetired: a 429 is a worker's own admission
// control saying "full", not a failure. The unit goes back on the queue, the
// coordinator waits out Retry-After and asks again; the worker keeps its
// place and the sweep is served remotely.
func TestCoordinatorBusyWorkerIsNotRetired(t *testing.T) {
	var runs atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	reg := gateRegistry(&runs, started, release)
	cells := fabricCells(4)
	want := engine.SweepContext(context.Background(), cells, engine.Options{Registry: reg})

	// The worker admits one cell at a time, and a tenant other than the
	// coordinator holds that slot.
	w := newFabricWorker(t, Config{Registry: reg, QueueDepth: 1}, -1)
	held := make(chan struct{})
	go func() {
		defer close(held)
		resp := postJSON(t, w.ts.URL+"/run", map[string]any{"scenario": "gate"})
		resp.Body.Close()
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("the gate cell never started")
	}

	_, ts := storeServer(t, Config{Registry: reg, CacheSize: -1, Shards: []string{w.ts.URL}, ShardInflight: 1})
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		checkFabricSweep(t, ts.URL, cells, want)
	}()
	for deadline := time.Now().Add(5 * time.Second); w.srv.metrics.rejected.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the full worker never refused the coordinator")
		}
	}
	close(release)
	<-held
	select {
	case <-swept:
	case <-time.After(10 * time.Second):
		t.Fatal("the sweep never finished after the worker freed up")
	}

	m, cm := coordMetrics(t, ts.URL)
	if cm.Lost != 0 || cm.Workers[0].Dead {
		t.Errorf("workers_lost = %d, dead = %t: a busy worker was retired", cm.Lost, cm.Workers[0].Dead)
	}
	if cm.Remote != uint64(len(cells)) || cm.Requeued != 0 || m.Cells.Computed != 0 {
		t.Errorf("%d cells remote, %d requeued, %d computed locally; want all %d remote", cm.Remote, cm.Requeued, m.Cells.Computed, len(cells))
	}
}

// TestCoordinatorClientDisconnectKeepsWorkers: a client that walks away
// cancels the units in flight; the error the dispatch sees is the caller's,
// not the worker's, and the worker must still be there for the next sweep.
func TestCoordinatorClientDisconnectKeepsWorkers(t *testing.T) {
	var runs atomic.Int64
	started := make(chan struct{}, 1)
	reg := gateRegistry(&runs, started, nil) // never released: the gate ends by cancellation
	w := newFabricWorker(t, Config{Registry: reg}, -1)
	_, ts := storeServer(t, Config{Registry: reg, CacheSize: -1, Shards: []string{w.ts.URL}, ShardInflight: 1})

	b, err := json.Marshal(map[string]any{"cells": []engine.Cell{{Scenario: "gate"}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sweep", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // reads until the cancellation below cuts it
			resp.Body.Close()
		}
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("the gate cell never reached the worker")
	}
	cancel()
	<-gone
	// The coordinator's handler returns once its dispatch has unwound; the
	// admission slot it frees on the way out is the event to wait for.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if m, _ := coordMetrics(t, ts.URL); m.Queue.Depth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the abandoned sweep never unwound")
		}
	}

	cells := fabricCells(3)
	checkFabricSweep(t, ts.URL, cells, engine.SweepContext(context.Background(), cells, engine.Options{Registry: reg}))
	if _, cm := coordMetrics(t, ts.URL); cm.Lost != 0 || cm.Remote != uint64(len(cells)) {
		t.Errorf("after a client disconnect: workers_lost = %d, cells_remote = %d; want the worker kept and %d cells served by it",
			cm.Lost, cm.Remote, len(cells))
	}
}

// TestUnitsCutPrefixGroups: warm, a sweep's units are its prefix groups in
// first-cell order, a group larger than maxUnitCells cut into requests a
// worker's default body and admission bounds admit; cold, every cell is a
// unit of one.
func TestUnitsCutPrefixGroups(t *testing.T) {
	var cells []engine.Cell
	for h := 1; h <= 2*maxUnitCells+88; h++ {
		cells = append(cells, engine.Cell{Scenario: "sim/gst", Params: engine.Params{P0: 0.5, N: 64, GST: 3, Horizon: h}})
		if h == 100 {
			cells = append(cells, engine.Cell{Scenario: "sim/gst", Params: engine.Params{P0: 0.6, N: 64, GST: 3, Horizon: h}})
		}
	}
	warm := units(cells, engine.Options{WarmStart: &engine.WarmStartOptions{}})
	var sizes, flat []int
	for _, u := range warm {
		sizes = append(sizes, len(u))
		flat = append(flat, u...)
	}
	if want := []int{maxUnitCells, maxUnitCells, 88, 1}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("warm unit sizes = %v, want %v", sizes, want)
	}
	if flat[len(flat)-1] != 100 || flat[100] != 101 {
		t.Errorf("the lone p0=0.6 cell (index 100) is not its own last unit: %v ... %v", flat[98:102], flat[len(flat)-1])
	}
	sort.Ints(flat)
	for i, idx := range flat {
		if idx != i {
			t.Fatalf("warm units cover cell %d at position %d: every cell must be in exactly one unit", idx, i)
		}
	}
	if cold := units(cells, engine.Options{}); len(cold) != len(cells) || len(cold[7]) != 1 || cold[7][0] != 7 {
		t.Errorf("cold: %d units for %d cells, want a unit of one per cell", len(cold), len(cells))
	}
}

// TestCoordinatorStallTimeoutRearmsPerUpdate: ShardCellTimeout bounds the
// wait for a unit's next update, not the unit. A worker that takes longer
// than the bound over a whole unit but answers each cell within it is
// served whole; one that falls silent mid-unit is cut off after the bound,
// and only the cells it still owed come back.
func TestCoordinatorStallTimeoutRearmsPerUpdate(t *testing.T) {
	const timeout, gap, n = 300 * time.Millisecond, 50 * time.Millisecond, 8
	cells := fabricCells(n)
	unit := make([]int, n)
	for i := range unit {
		unit[i] = i
	}
	var silentAfter atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for k := 0; k < n; k++ {
			if int64(k) == silentAfter.Load() {
				<-r.Context().Done()
				return
			}
			time.Sleep(gap)
			json.NewEncoder(w).Encode(engine.Update{Index: k, Result: engine.Result{Scenario: "counted"}}) //nolint:errcheck // a test stream
			w.(http.Flusher).Flush()
		}
	}))
	defer ts.Close()
	c, err := newCoordinator([]string{ts.URL}, 1, timeout, newMetrics())
	if err != nil {
		t.Fatal(err)
	}
	run := func() (delivered, missing []int, err error) {
		missing, err = c.runUnit(context.Background(), c.workers[0], cells, unit, engine.Options{}, func(i int, _ engine.Result) {
			delivered = append(delivered, i)
		})
		return delivered, missing, err
	}

	silentAfter.Store(-1) // never: n gaps outlast the bound, no single gap does
	start := time.Now()
	delivered, missing, err := run()
	if err != nil || len(delivered) != n || missing != nil {
		t.Fatalf("steady worker: delivered %v, missing %v, err %v; want the whole unit", delivered, missing, err)
	}
	if took := time.Since(start); took < timeout {
		t.Fatalf("the steady unit took %v, under the %v bound: it proves nothing about re-arming", took, timeout)
	}

	silentAfter.Store(3)
	delivered, missing, err = run()
	if err == nil || !reflect.DeepEqual(delivered, []int{0, 1, 2}) || !reflect.DeepEqual(missing, []int{3, 4, 5, 6, 7}) {
		t.Fatalf("silent worker: delivered %v, missing %v, err %v; want cells 0-2 and the rest owed", delivered, missing, err)
	}
}
