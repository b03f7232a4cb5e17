// Package server exposes the scenario registry over HTTP/JSON: listing,
// single runs, and streaming parameter sweeps, backed by a tiered result
// cache (in-memory LRU → persistent content-addressed store → compute) and
// optionally scaled out over worker processes (coordinator mode).
//
// Endpoints:
//
//	GET  /scenarios  registry listing (name, description, defaults)
//	POST /run        one scenario run, JSON in / JSON out, cached
//	POST /sweep      parameter sweep, NDJSON stream of per-cell results
//	GET  /healthz    liveness plus registry and cache/store statistics
//	GET  /metrics    fabric observability: tier hit/miss counters, cells
//	                 computed vs served from store, queue depth, in-flight
//	                 dispatch, per-scenario timing sums, worker health
//
// Sweep responses stream one engine.Update JSON object per line —
// completion order in-process, deterministic cell order in coordinator
// mode; cancellation (client disconnect) propagates through the engine's
// context and aborts the remaining cells promptly. Admission control
// bounds the cells queued across requests: a request that would exceed
// the bound is refused with 429 and a Retry-After header rather than
// queued without limit.
//
// A coordinator dispatches in units, each one multi-cell /sweep request to
// one worker whose NDJSON stream it reads as it arrives: a prefix group of a
// warm-started sweep (engine.PrefixGroups — the cells one worker can serve
// from a single simulated prefix), one cell of a cold one. A worker's stream
// is outside input and is read as such (readUnitStream).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// DefaultCacheSize is the LRU capacity used when Config.CacheSize is 0.
const DefaultCacheSize = 512

// DefaultQueueDepth bounds the cells admitted (queued or in flight)
// across all requests when Config.QueueDepth is 0.
const DefaultQueueDepth = 4096

// DefaultMaxBodyBytes bounds request bodies when Config.MaxBodyBytes is 0:
// 1 MiB, roomy for any realistic grid spec or explicit cell list.
const DefaultMaxBodyBytes int64 = 1 << 20

// Config parameterizes a Server.
type Config struct {
	// Registry resolves scenario names; nil means the default registry.
	Registry *engine.Registry
	// Workers is the default sweep worker pool (0 = all CPUs). Negative
	// values are rejected by New.
	Workers int
	// CacheSize bounds the LRU result cache: 0 means DefaultCacheSize,
	// negative disables caching.
	CacheSize int
	// StoreDir enables the persistent tier: a content-addressed result
	// store rooted at this directory (created if needed). Results are
	// keyed by the same canonical cell key as the LRU, written atomically
	// with a checksummed header, and survive process restarts — a
	// repeated grid is served from disk at cache speed by any later
	// process over the same directory. Empty disables the tier.
	StoreDir string
	// CheckpointEvery sets the durable mid-cell checkpoint interval in
	// simulated epochs for sweep cells of checkpointable scenarios
	// (engine.CheckpointableScenario). Checkpoints live in the StoreDir
	// store under their own namespace: a worker killed mid-cell resumes
	// its cell from the newest valid checkpoint instead of recomputing
	// from epoch 0, with results bit-identical to the uninterrupted run.
	// 0 means engine.DefaultCheckpointEvery; negative disables
	// checkpointing. No effect without StoreDir.
	CheckpointEvery int
	// WarmStart turns the snapshot-tree warm-start scheduler on by
	// default for /sweep requests whose scenarios support it
	// (engine.CheckpointableScenario); per-request "warm" overrides it
	// either way. Results are bit-identical to cold sweeps, so warm and
	// cold cells share the cache tiers freely.
	WarmStart bool
	// Shards lists worker base URLs (e.g. http://w1:8791). Non-empty puts
	// the server in coordinator mode: sweep cells are dispatched to the
	// workers in units over the NDJSON /sweep protocol, the cells a failed
	// or stalled worker had not yet answered are requeued onto the
	// survivors, and results are merged in deterministic cell order. A
	// plain serve instance is a valid worker. With warm start on (WarmStart
	// or the request's "warm"), a unit is a prefix group and means on the
	// worker what it means in one process: cells that share a simulated
	// prefix skip the per-cell durable checkpoint tier, lone cells keep it.
	Shards []string
	// ShardInflight bounds concurrently dispatched units — open requests —
	// per worker (0 = DefaultShardInflight).
	ShardInflight int
	// ShardCellTimeout bounds the wait for a unit's next cell: it is armed
	// when the request is sent and re-armed by every update that arrives, so
	// it bounds one remote cell's wall clock and not a whole unit's. An
	// overrun condemns the worker and requeues the cells still owed
	// (0 = unbounded).
	ShardCellTimeout time.Duration
	// QueueDepth bounds the cells admitted (queued or in flight) across
	// all requests; a request that would exceed it is refused with 429 +
	// Retry-After. 0 means DefaultQueueDepth, negative unlimited.
	QueueDepth int
	// MaxBodyBytes bounds request bodies (http.MaxBytesReader); an
	// oversized body is refused with 413. 0 means DefaultMaxBodyBytes,
	// negative unlimited.
	MaxBodyBytes int64
}

// Server serves the scenario registry over HTTP.
type Server struct {
	// opt is the policy every cell is answered under: registry, pool width,
	// warm start, checkpoints, the coordinator's dispatch, and results as
	// the result tier. /sweep overrides Workers and WarmStart per request.
	opt        engine.Options
	results    resultTier
	coord      *coordinator
	queueDepth int
	maxBody    int64
	metrics    *metrics
}

// resultTier is the server's engine.ResultTier: the LRU in front of the
// persistent store, either of which may be absent. The LRU counts its own
// hits and the tier counts the store's, both read by /metrics. Both hold
// payloads, so a hit is bytes end to end.
type resultTier struct {
	cache   *resultCache
	store   *store.Results
	metrics *metrics
}

// GetPayload consults the LRU, then the store. A store hit is promoted
// into the LRU so the next lookup stays in memory.
func (t *resultTier) GetPayload(key string) ([]byte, bool) {
	if t.cache != nil {
		if payload, ok := t.cache.get(key); ok {
			return payload, true
		}
	}
	if t.store != nil {
		if payload, ok := t.store.GetPayload(key); ok {
			if t.cache != nil {
				t.cache.add(key, payload)
			}
			t.metrics.cellsFromStore.Add(1)
			return payload, true
		}
	}
	return nil, false
}

// PutPayload writes a payload through both tiers.
func (t *resultTier) PutPayload(key string, payload []byte) error {
	if t.cache != nil {
		t.cache.add(key, payload)
	}
	if t.store != nil {
		return t.store.PutPayload(key, payload)
	}
	return nil
}

// New validates cfg and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("server: workers = %d, want >= 0 (0 = all CPUs)", cfg.Workers)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = engine.Default
	}
	s := &Server{
		opt:     engine.Options{Registry: reg, Workers: cfg.Workers},
		metrics: newMetrics(),
	}
	s.results.metrics = s.metrics
	if cfg.WarmStart {
		s.opt.WarmStart = &engine.WarmStartOptions{}
	}
	if cfg.CacheSize >= 0 {
		size := cfg.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		s.results.cache = newResultCache(size)
	}
	if cfg.StoreDir != "" {
		st, err := store.OpenResults(cfg.StoreDir)
		if err != nil {
			return nil, fmt.Errorf("server: opening result store: %w", err)
		}
		s.results.store = st
		if cfg.CheckpointEvery >= 0 {
			// The checkpoint tier shares the result store's directory:
			// a worker's -store holds its results and its in-flight
			// checkpoints, so crash resume needs no extra configuration.
			s.opt.Checkpoint = &engine.CheckpointOptions{Every: cfg.CheckpointEvery, Store: st.Checkpoints()}
		}
	}
	if s.results.cache != nil || s.results.store != nil {
		s.opt.Results = &s.results
	}
	if len(cfg.Shards) > 0 {
		coord, err := newCoordinator(cfg.Shards, cfg.ShardInflight, cfg.ShardCellTimeout, s.metrics)
		if err != nil {
			return nil, err
		}
		s.coord = coord
		s.opt.Dispatch = coord.dispatch
	}
	s.queueDepth = cfg.QueueDepth
	if s.queueDepth == 0 {
		s.queueDepth = DefaultQueueDepth
	}
	s.maxBody = cfg.MaxBodyBytes
	if s.maxBody == 0 {
		s.maxBody = DefaultMaxBodyBytes
	}
	return s, nil
}

// Close flushes and closes the persistent store tier (graceful shutdown
// calls it after draining in-flight requests). The in-memory tiers need
// no teardown.
func (s *Server) Close() error {
	if s.results.store != nil {
		return s.results.store.Close()
	}
	return nil
}

// Checkpoints exposes the durable checkpoint tier (nil when disabled);
// tests use it to plant, inspect, and damage mid-cell checkpoints.
func (s *Server) Checkpoints() *store.Checkpoints {
	if s.opt.Checkpoint == nil {
		return nil
	}
	return s.opt.Checkpoint.Store.(*store.Checkpoints)
}

// Handler returns the HTTP routing for the service.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /scenarios", s.handleScenarios)
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// decodeBody reads a JSON request body whole under the configured size
// bound — into a buffer of its Content-Length when the client declared one,
// through http.MaxBytesReader when it did not — and decodes it with one
// json.Unmarshal. It reports (handled=true) after writing the error
// response itself, so handlers can simply return.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) (handled bool) {
	var body []byte
	var err error
	switch n := r.ContentLength; {
	case s.maxBody > 0 && n > s.maxBody:
		err = &http.MaxBytesError{Limit: s.maxBody}
	case s.maxBody > 0 && n >= 0:
		body = make([]byte, n)
		_, err = io.ReadFull(r.Body, body)
	default:
		if s.maxBody > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		body, err = io.ReadAll(r.Body)
	}
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
			return true
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return true
	}
	return false
}

// admit reserves queue slots for n cells, or refuses with 429 +
// Retry-After when the bound would be exceeded. The returned release frees
// the slots (call it exactly once; it is nil-safe to call on refusal).
func (s *Server) admit(w http.ResponseWriter, n int) (release func(), ok bool) {
	if n == 0 {
		return func() {}, true
	}
	if s.queueDepth > 0 {
		if queued := s.metrics.admitted.Add(int64(n)); queued > int64(s.queueDepth) {
			s.metrics.admitted.Add(int64(-n))
			s.metrics.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests,
				"queue full: %d cells admitted of %d; retry shortly", queued-int64(n), s.queueDepth)
			return nil, false
		}
	} else {
		s.metrics.admitted.Add(int64(n))
	}
	return func() { s.metrics.admitted.Add(int64(-n)) }, true
}

// writeJSON emits v as JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the response is already committed
}

// writeError emits a JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleScenarios lists the registry.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.opt.Registry.Infos())
}

// hitLines holds the buffers handleRun writes an LRU hit's line from, so
// that a hit allocates no payload-sized buffer of its own. The line goes to
// the ResponseWriter in one write, as the bytes a response recorder holds
// grow with each.
var hitLines = sync.Pool{New: func() any { return new([]byte) }}

// handleRun executes one scenario, serving repeated parameter points from
// the result tier (LRU, then disk). Coordinators compute /run in-process
// too, and cold: a coordinator is a complete serve instance, and a single
// cell neither fans out nor shares a prefix.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	// The body is the cell: {"scenario": ..., "params": {...}}. Params
	// decode presence-aware (engine.Params.UnmarshalJSON marks every key
	// present in the document), so an explicit zero like {"rate": 0}
	// survives defaulting as-is.
	cell := make([]engine.Cell, 1)
	if s.decodeBody(w, r, &cell[0]) {
		return
	}
	scenario := cell[0].Scenario
	if _, ok := s.opt.Registry.Lookup(scenario); !ok {
		writeError(w, http.StatusNotFound, "unknown scenario %q", scenario)
		return
	}
	opt := s.opt
	opt.WarmStart, opt.Dispatch = nil, nil
	run := engine.Prepare(cell, opt)
	if hits := run.Hits(); len(hits) > 0 {
		w.Header().Set("Content-Type", "application/json")
		line := hitLines.Get().(*[]byte)
		*line = append(hits[0].AppendResult((*line)[:0]), '\n')
		w.Write(*line) //nolint:errcheck // the response is already committed
		hitLines.Put(line)
		return
	}
	release, ok := s.admit(w, run.Misses())
	if !ok {
		return
	}
	defer release()
	// One cell through the engine's cell executor, exactly as /sweep runs
	// it — an interrupted checkpointable /run resumes on the next ask.
	res := (<-run.Computed(r.Context())).Result
	if res.Err != "" {
		// A cell the request's end cut short is a server-side abort (client
		// disconnect or graceful shutdown), not a bad request.
		status := http.StatusBadRequest
		if r.Context().Err() != nil {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "scenario %q: %s", scenario, res.Err)
		return
	}
	s.recordCell(res, false)
	writeJSON(w, http.StatusOK, res)
}

// recordCell counts one successfully answered cell into /metrics; a
// failure counts nowhere, and a cell the result tier answered was counted
// there. Resume provenance rides
// RunMeta whether the cell ran here or on a remote worker; either way this
// server answered it. In coordinator mode sweep cells were computed
// elsewhere (the ledger tracks them as remote; the local-fallback path
// records its own compute), so only in-process work counts as computed —
// /run always is.
func (s *Server) recordCell(res engine.Result, remote bool) {
	if res.Err != "" || res.Meta == nil || res.Meta.Cached {
		return
	}
	if ck := res.Meta.Checkpoint; ck != nil && ck.Resumed {
		s.metrics.cellsResumed.Add(1)
		s.metrics.checkpointEpochsSaved.Add(uint64(ck.EpochsSaved))
	}
	if !remote {
		s.metrics.recordComputed(res.Scenario, res.Meta.DurationMS)
	}
}

// sweepRequest is the POST /sweep body: either explicit cells, or a
// scenario plus a ParseGrid spec (with params pinning unlisted
// dimensions, mirroring the CLI flag fallback). Cell and fallback params
// decode presence-aware (engine.Params.UnmarshalJSON), so an explicit
// zero in the request is an explicit zero in the run.
type sweepRequest struct {
	Cells    []engine.Cell `json:"cells,omitempty"`
	Scenario string        `json:"scenario,omitempty"`
	Sweep    string        `json:"sweep,omitempty"`
	Params   engine.Params `json:"params,omitempty"`
	// Workers overrides the server's sweep pool for this request
	// (0 = server default, negative rejected).
	Workers int `json:"workers,omitempty"`
	// Warm overrides the server's warm-start default for this request
	// (absent = server default).
	Warm *bool `json:"warm,omitempty"`
}

// handleSweep expands the requested sweep and streams one NDJSON update
// per cell. Cells the result tier holds — in the LRU or the persistent
// store — are emitted first without recomputation, and only the rest are
// admitted; they are computed in-process (completion order) or,
// in coordinator mode, dispatched over the workers and streamed in
// deterministic cell order. Once the request's context has ended, the
// stream stops at the first failed cell instead of reporting the
// cancellation as that cell's result.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if s.decodeBody(w, r, &req) {
		return
	}
	if req.Workers < 0 {
		writeError(w, http.StatusBadRequest, "workers = %d, want >= 0 (0 = server default)", req.Workers)
		return
	}
	cells := req.Cells
	if len(cells) == 0 {
		if req.Scenario == "" || req.Sweep == "" {
			writeError(w, http.StatusBadRequest, "body wants cells, or scenario plus sweep spec")
			return
		}
		if _, ok := s.opt.Registry.Lookup(req.Scenario); !ok {
			writeError(w, http.StatusNotFound, "unknown scenario %q", req.Scenario)
			return
		}
		grid, err := engine.ParseGrid(req.Scenario, req.Sweep)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		cells = grid.FillFrom(req.Params).Cells()
	}
	opt := s.opt
	if req.Workers > 0 {
		opt.Workers = req.Workers
	}
	if req.Warm != nil {
		opt.WarmStart = nil
		if *req.Warm {
			opt.WarmStart = &engine.WarmStartOptions{}
		}
	}
	sweep := engine.Prepare(cells, opt)
	release, ok := s.admit(w, sweep.Misses())
	if !ok {
		return
	}
	defer release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	// The hits are written from their payloads, the misses as they finish.
	hits := sweep.Hits()
	var line []byte
	for k, h := range hits {
		line = append(h.AppendUpdate(line[:0], k+1, len(hits)+sweep.Misses()), '\n')
		w.Write(line) //nolint:errcheck // disconnects surface via the request context
		flush()
	}
	enc := json.NewEncoder(w)
	updates := sweep.Computed(r.Context())
	for u := range updates {
		if u.Result.Err != "" && r.Context().Err() != nil {
			// A cell the request's end cut short is not a result: end the
			// stream here (draining the sweep), so a coordinator reading it
			// sees it end short and requeues the cells it did not receive.
			for range updates {
			}
			return
		}
		s.recordCell(u.Result, s.coord != nil)
		enc.Encode(u) //nolint:errcheck // disconnects surface via the request context
		flush()
	}
}

// handleHealthz reports liveness plus registry, cache, and store
// statistics. Its keys are in alphabetical order, as encoding/json writes a
// map's.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	t := s.tierStats()
	writeJSON(w, http.StatusOK, struct {
		Cache       *cacheStats        `json:"cache,omitempty"`
		Checkpoints *checkpointMetrics `json:"checkpoints,omitempty"`
		Scenarios   int                `json:"scenarios"`
		Status      string             `json:"status"`
		Store       *store.Stats       `json:"store,omitempty"`
	}{t.Cache, t.Checkpoints, len(s.opt.Registry.Names()), "ok", t.Store})
}

// tierStats is the cache, store and checkpoints blocks of /healthz and
// /metrics; each is present only when its tier is configured.
type tierStats struct {
	Cache *cacheStats  `json:"cache,omitempty"`
	Store *store.Stats `json:"store,omitempty"`
	// Checkpoints is the store-side ledger (written/bytes/loaded/missed/
	// gc_deleted) plus the sweep-side resume wins.
	Checkpoints *checkpointMetrics `json:"checkpoints,omitempty"`
}

// cacheStats is the LRU's block of tierStats.
type cacheStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// tierStats reads the configured tiers' counters.
func (s *Server) tierStats() tierStats {
	var t tierStats
	if cache := s.results.cache; cache != nil {
		hits, misses := cache.stats()
		t.Cache = &cacheStats{Entries: cache.len(), Hits: hits, Misses: misses}
	}
	if st := s.results.store; st != nil {
		stats := st.Stats()
		t.Store = &stats
	}
	if ck := s.Checkpoints(); ck != nil {
		t.Checkpoints = &checkpointMetrics{
			CheckpointStats: ck.Stats(),
			Resumed:         s.metrics.cellsResumed.Load(),
			EpochsSaved:     s.metrics.checkpointEpochsSaved.Load(),
		}
	}
	return t
}

// metricsResponse is the GET /metrics document.
type metricsResponse struct {
	// Cells accounts where every answered cell came from.
	Cells struct {
		Computed  uint64 `json:"computed"`
		FromLRU   uint64 `json:"from_lru"`
		FromStore uint64 `json:"from_store"`
	} `json:"cells"`
	// Queue is the admission-control state.
	Queue struct {
		Depth    int64  `json:"depth"`
		Limit    int    `json:"limit"`
		Rejected uint64 `json:"rejected"`
	} `json:"queue"`
	tierStats
	// Coordinator is present only in coordinator mode.
	Coordinator *coordinatorMetrics `json:"coordinator,omitempty"`
	// Scenarios sums computed-cell wall clock per scenario, sorted by
	// name so the rendered order is fixed by construction.
	Scenarios []namedScenarioTiming `json:"scenarios"`
	// Spares counts the process's spare simulations: idle now, and the
	// genesis starts that reset one or built anew.
	Spares engine.SpareStats `json:"spare_sims"`
}

// coordinatorMetrics is the /metrics coordinator block: the dispatch
// ledger. A unit is one request to a worker — a prefix group of a
// warm-started sweep, one cell of a cold one — so cells_remote over
// units_dispatched reads how many cells shared each simulated prefix.
type coordinatorMetrics struct {
	Workers  []workerStats `json:"workers"`
	Units    uint64        `json:"units_dispatched"`
	Remote   uint64        `json:"cells_remote"`
	Requeued uint64        `json:"cells_requeued"`
	Lost     uint64        `json:"workers_lost"`
	// Inflight counts units, not cells: requests currently open to workers.
	Inflight int64 `json:"inflight"`
}

// checkpointMetrics is the /metrics checkpoints block: the checkpoint
// store's own counters plus the cells this server streamed that resumed
// from a durable checkpoint (and the epochs those resumes skipped),
// whether the cell ran locally or on a remote worker.
type checkpointMetrics struct {
	store.CheckpointStats
	Resumed     uint64 `json:"resumed"`
	EpochsSaved uint64 `json:"epochs_saved"`
}

// handleMetrics serves the fabric's observability counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var resp metricsResponse
	resp.Cells.Computed = s.metrics.cellsComputed.Load()
	if s.results.cache != nil {
		resp.Cells.FromLRU, _ = s.results.cache.stats()
	}
	resp.Cells.FromStore = s.metrics.cellsFromStore.Load()
	resp.Queue.Depth = s.metrics.admitted.Load()
	resp.Queue.Limit = s.queueDepth
	resp.Queue.Rejected = s.metrics.rejected.Load()
	resp.tierStats = s.tierStats()
	if s.coord != nil {
		resp.Coordinator = &coordinatorMetrics{
			Workers:  s.coord.stats(),
			Units:    s.metrics.unitsDispatched.Load(),
			Remote:   s.metrics.cellsRemote.Load(),
			Requeued: s.metrics.cellsRequeued.Load(),
			Lost:     s.metrics.workersLost.Load(),
			Inflight: s.metrics.remoteInflight.Load(),
		}
	}
	resp.Scenarios = s.metrics.snapshotScenarios()
	resp.Spares = engine.Spares()
	writeJSON(w, http.StatusOK, resp)
}
