package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/engine"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeNDJSON parses a streamed sweep response into updates.
func decodeNDJSON(t *testing.T, resp *http.Response) []engine.Update {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var updates []engine.Update
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var u engine.Update
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		updates = append(updates, u)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return updates
}

func TestNewRejectsNegativeWorkers(t *testing.T) {
	if _, err := New(Config{Workers: -2}); err == nil || !strings.Contains(err.Error(), "-2") {
		t.Fatalf("New(Workers:-2) err = %v, want a clear validation error", err)
	}
}

func TestScenariosEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []engine.Info
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(engine.Default.Names()) {
		t.Fatalf("infos = %d, want %d", len(infos), len(engine.Default.Names()))
	}
	byName := map[string]engine.Info{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	if in := byName[engine.ScenarioLeakSim]; in.Description == "" || in.Defaults.N != 10000 {
		t.Errorf("leaksim info incomplete over HTTP: %+v", in)
	}
}

func TestRunEndpointAndCache(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := map[string]any{
		"scenario": engine.ScenarioAnalyticThreshold,
		"params":   engine.Params{P0: 0.5},
	}
	var first engine.Result
	resp := postJSON(t, ts.URL+"/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v, ok := first.Metric("threshold_both_branches"); !ok || v != analytic.PaperParams().ThresholdBeta0(0.5) {
		t.Errorf("threshold = %v, want %v", v, analytic.PaperParams().ThresholdBeta0(0.5))
	}
	if first.Meta == nil || first.Meta.Cached {
		t.Errorf("first run meta = %+v, want fresh computation", first.Meta)
	}

	// Same effective parameters, defaults spelled out this time: a hit.
	var second engine.Result
	resp = postJSON(t, ts.URL+"/run", map[string]any{
		"scenario": engine.ScenarioAnalyticThreshold,
		"params":   engine.Params{P0: 0.5, Mode: "paper"},
	})
	if err := json.NewDecoder(resp.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if second.Meta == nil || !second.Meta.Cached {
		t.Errorf("second run meta = %+v, want cache hit", second.Meta)
	}
	if !reflect.DeepEqual(first.WithoutMeta(), second.WithoutMeta()) {
		t.Error("cached result diverges from computed result")
	}

	// Healthz reflects the traffic.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Status    string            `json:"status"`
		Scenarios int               `json:"scenarios"`
		Cache     map[string]uint64 `json:"cache"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Scenarios == 0 {
		t.Errorf("healthz = %+v", health)
	}
	if health.Cache["hits"] < 1 || health.Cache["entries"] < 1 {
		t.Errorf("cache stats = %v, want at least one hit and one entry", health.Cache)
	}
}

func TestRunEndpointErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/run", map[string]any{"scenario": "no-such"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown scenario status = %d, want 404", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/run", map[string]any{
		"scenario": engine.ScenarioLeakSim,
		"params":   engine.Params{Mode: "warp", N: 100, Horizon: 10},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode status = %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "warp") {
		t.Errorf("error envelope = %+v (%v)", e, err)
	}
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/run", nil)
	getResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run status = %d, want 405", getResp.StatusCode)
	}
}

// TestSweepNDJSONMatchesInProcess is the serving-layer acceptance check:
// the streamed cells of POST /sweep aggregate to exactly the result set of
// an in-process sweep over the same grid.
func TestSweepNDJSONMatchesInProcess(t *testing.T) {
	ts := newTestServer(t, Config{})
	const spec = "beta0=0.32,0.33; seed=1:2:1"
	updates := decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", map[string]any{
		"scenario": engine.ScenarioBounceMC,
		"sweep":    spec,
		"params":   engine.Params{N: 60, Horizon: 200},
	}))

	grid, err := engine.ParseGrid(engine.ScenarioBounceMC, spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := grid.FillFrom(engine.Params{N: 60, Horizon: 200}).Cells()
	if len(updates) != len(cells) {
		t.Fatalf("streamed %d updates, want %d", len(updates), len(cells))
	}
	streamed := make([]engine.Result, len(cells))
	for i, u := range updates {
		if u.Completed != i+1 || u.Total != len(cells) {
			t.Errorf("update %d: progress %d/%d, want %d/%d", i, u.Completed, u.Total, i+1, len(cells))
		}
		streamed[u.Index] = u.Result
	}
	local := engine.SweepContext(context.Background(), cells, engine.Options{})
	if !reflect.DeepEqual(engine.StripMeta(streamed), engine.StripMeta(local)) {
		t.Error("streamed sweep diverges from in-process sweep")
	}
}

// TestSweepCacheSkipsRecomputation: repeated cells are served from the
// LRU without invoking the scenario again.
func TestSweepCacheSkipsRecomputation(t *testing.T) {
	var runs atomic.Int64
	reg := engine.NewRegistry()
	reg.MustRegister(engine.NewScenario("counted", "counts invocations",
		engine.Params{P0: 0.5}, engine.FieldAll,
		func(_ context.Context, p engine.Params) (engine.Result, error) {
			runs.Add(1)
			return engine.Result{Metrics: []engine.Metric{{Name: "seed", Value: float64(p.Seed)}}}, nil
		}))
	ts := newTestServer(t, Config{Registry: reg})

	body := map[string]any{"cells": []engine.Cell{
		{Scenario: "counted", Params: engine.Params{Seed: 1}},
		{Scenario: "counted", Params: engine.Params{Seed: 2}},
		{Scenario: "counted", Params: engine.Params{Seed: 3}},
	}}
	first := decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", body))
	if got := runs.Load(); got != 3 {
		t.Fatalf("first sweep ran %d cells, want 3", got)
	}
	for _, u := range first {
		if u.Result.Meta == nil || u.Result.Meta.Cached {
			t.Errorf("first sweep cell %d meta = %+v, want fresh", u.Index, u.Result.Meta)
		}
	}

	second := decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", body))
	if got := runs.Load(); got != 3 {
		t.Errorf("repeat sweep recomputed: %d total runs, want still 3", got)
	}
	if len(second) != 3 {
		t.Fatalf("repeat sweep streamed %d updates, want 3", len(second))
	}
	for _, u := range second {
		if u.Result.Meta == nil || !u.Result.Meta.Cached {
			t.Errorf("repeat sweep cell %d meta = %+v, want cached", u.Index, u.Result.Meta)
		}
	}
	firstRes := make([]engine.Result, 3)
	secondRes := make([]engine.Result, 3)
	for i := range first {
		firstRes[first[i].Index] = first[i].Result
		secondRes[second[i].Index] = second[i].Result
	}
	if !reflect.DeepEqual(engine.StripMeta(firstRes), engine.StripMeta(secondRes)) {
		t.Error("cached sweep payload diverges from computed payload")
	}

	// A mixed sweep recomputes only the unseen cell.
	mixed := append(body["cells"].([]engine.Cell), engine.Cell{Scenario: "counted", Params: engine.Params{Seed: 4}})
	updates := decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", map[string]any{"cells": mixed}))
	if got := runs.Load(); got != 4 {
		t.Errorf("mixed sweep ran %d cells total, want 4", got)
	}
	if len(updates) != 4 {
		t.Errorf("mixed sweep streamed %d updates, want 4", len(updates))
	}
}

func TestSweepRequestValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		body any
		want int
	}{
		{"empty body", map[string]any{}, http.StatusBadRequest},
		{"negative workers", map[string]any{"scenario": "leaksim", "sweep": "p0=0.5", "workers": -1}, http.StatusBadRequest},
		{"unknown grid scenario", map[string]any{"scenario": "warp", "sweep": "p0=0.5"}, http.StatusNotFound},
		{"malformed spec", map[string]any{"scenario": "leaksim", "sweep": "p0=zap"}, http.StatusBadRequest},
	} {
		resp := postJSON(t, ts.URL+"/sweep", tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestSweepPerCellErrorsStream: explicit cells with an unknown scenario
// stream an error result instead of failing the whole request.
func TestSweepPerCellErrorsStream(t *testing.T) {
	ts := newTestServer(t, Config{})
	updates := decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", map[string]any{"cells": []engine.Cell{
		{Scenario: engine.ScenarioAnalyticThreshold, Params: engine.Params{P0: 0.5}},
		{Scenario: "no-such", Params: engine.Params{}},
	}}))
	if len(updates) != 2 {
		t.Fatalf("updates = %d, want 2", len(updates))
	}
	byIndex := map[int]engine.Result{}
	for _, u := range updates {
		byIndex[u.Index] = u.Result
	}
	if byIndex[0].Err != "" {
		t.Errorf("cell 0 failed: %s", byIndex[0].Err)
	}
	if !strings.Contains(byIndex[1].Err, "no-such") {
		t.Errorf("cell 1 err = %q, want unknown-scenario error", byIndex[1].Err)
	}
}

// TestNonFiniteResultIsCellError: 5.1 at an explicit p0 = 0 gets Equation
// 6's NaN for its analytic epoch, a number JSON cannot carry. /run answers
// the 400 error envelope naming the metric, not a 200 with an empty body,
// and /sweep streams the cell's error line, so the stream holds as many
// lines as its total.
func TestNonFiniteResultIsCellError(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/run", map[string]any{"scenario": "5.1", "params": map[string]any{"p0": 0}})
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "analytic_epoch") {
		t.Errorf("/run at p0 = 0: status %d, envelope %+v (%v); want 400 naming analytic_epoch", resp.StatusCode, e, err)
	}
	resp.Body.Close()

	updates := decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", map[string]any{"scenario": "5.1", "sweep": "p0=0,0.5"}))
	if len(updates) != 2 {
		t.Fatalf("/sweep streamed %d lines, want 2", len(updates))
	}
	for _, u := range updates {
		if u.Total != 2 {
			t.Errorf("update %d: total %d, want 2", u.Index, u.Total)
		}
		if failed := strings.Contains(u.Result.Err, "analytic_epoch"); failed != (u.Result.Params.P0 == 0) {
			t.Errorf("cell at p0 = %v: error %q", u.Result.Params.P0, u.Result.Err)
		}
	}
}

// TestSweepClientDisconnect: an abandoned request context aborts the sweep
// server-side instead of computing the full grid.
func TestSweepClientDisconnect(t *testing.T) {
	var runs atomic.Int64
	reg := engine.NewRegistry()
	reg.MustRegister(engine.NewScenario("slow", "cancellable",
		engine.Params{P0: 0.5}, engine.FieldAll,
		func(ctx context.Context, p engine.Params) (engine.Result, error) {
			runs.Add(1)
			select {
			case <-ctx.Done():
				return engine.Result{}, ctx.Err()
			case <-time.After(30 * time.Millisecond):
				return engine.Result{}, nil
			}
		}))
	ts := newTestServer(t, Config{Registry: reg, Workers: 1, CacheSize: -1})

	cells := make([]engine.Cell, 50)
	for i := range cells {
		cells[i] = engine.Cell{Scenario: "slow", Params: engine.Params{Seed: int64(i + 1)}}
	}
	b, _ := json.Marshal(map[string]any{"cells": cells})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sweep", bytes.NewReader(b))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one line, then walk away.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first update")
	}
	cancel()
	resp.Body.Close()

	// Wait until the server-side sweep settles (the invocation counter
	// stops growing), then assert it stopped short of the full grid. If
	// cancellation did not propagate, the single worker keeps computing
	// 30ms cells and the counter only stabilizes at all 50.
	last := runs.Load()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(150 * time.Millisecond)
		now := runs.Load()
		if now == last {
			break
		}
		last = now
	}
	if got := runs.Load(); got >= int64(len(cells)) {
		t.Errorf("server computed all %d cells despite disconnect", got)
	}
}

// TestRunEndpointKeepsExplicitZeroParams: a request whose document spells
// out a zero parameter ({"rate": 0}) runs with that zero, while omitting
// the key takes the scenario default — and the two land on distinct cache
// keys.
func TestRunEndpointKeepsExplicitZeroParams(t *testing.T) {
	reg := engine.NewRegistry()
	reg.MustRegister(engine.NewScenario("echo", "echoes the effective rate/gst",
		engine.Params{P0: 0.5, Rate: 0.4, GST: 7}, engine.FieldAll,
		func(_ context.Context, p engine.Params) (engine.Result, error) {
			return engine.Result{Metrics: []engine.Metric{
				{Name: "rate", Value: p.Rate},
				{Name: "gst", Value: float64(p.GST)},
			}}, nil
		}))
	ts := newTestServer(t, Config{Registry: reg})

	run := func(body string) engine.Result {
		t.Helper()
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		var res engine.Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res
	}

	defaulted := run(`{"scenario": "echo", "params": {}}`)
	if rate, _ := defaulted.Metric("rate"); rate != 0.4 {
		t.Fatalf("omitted rate ran as %v, want default 0.4", rate)
	}
	explicit := run(`{"scenario": "echo", "params": {"rate": 0, "gst": 0}}`)
	if rate, _ := explicit.Metric("rate"); rate != 0 {
		t.Fatalf("explicit rate=0 ran as %v, want 0", rate)
	}
	if gst, _ := explicit.Metric("gst"); gst != 0 {
		t.Fatalf("explicit gst=0 ran as %v, want 0", gst)
	}
	if explicit.Meta != nil && explicit.Meta.Cached {
		t.Fatal("explicit-zero run was served from the defaulted run's cache entry")
	}
}

// TestSweepWarmMatchesColdAndStampsMeta runs the same shared-prefix grid
// warm (per-request override) and cold (server default) on a cache-less
// server: warm cells must carry warm-start provenance in the stream, and
// the payloads must be bit-identical to the cold sweep's.
func TestSweepWarmMatchesColdAndStampsMeta(t *testing.T) {
	ts := newTestServer(t, Config{CacheSize: -1})
	grid := map[string]any{
		"scenario": "sim/gst",
		"sweep":    "horizon=4,6,8",
		"params":   map[string]any{"n": 24, "gst": 12},
	}

	warmBody := map[string]any{"warm": true}
	for k, v := range grid {
		warmBody[k] = v
	}
	warm := decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", warmBody))
	if len(warm) != 3 {
		t.Fatalf("warm sweep streamed %d updates, want 3", len(warm))
	}
	hits := 0
	warmRes := make([]engine.Result, len(warm))
	for _, u := range warm {
		warmRes[u.Index] = u.Result
		if u.Result.Err != "" {
			t.Fatalf("warm cell %d failed: %s", u.Index, u.Result.Err)
		}
		wm := u.Result.Meta.Warm
		if wm == nil {
			t.Fatalf("warm cell %d meta = %+v, want warm-start provenance", u.Index, u.Result.Meta)
		}
		if wm.Hit {
			hits++
			if wm.EpochsSaved <= 0 {
				t.Errorf("warm hit %d saved %d epochs, want > 0", u.Index, wm.EpochsSaved)
			}
		}
	}
	if hits == 0 {
		t.Error("shared-prefix grid produced no warm hits")
	}

	cold := decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", grid))
	coldRes := make([]engine.Result, len(cold))
	for _, u := range cold {
		coldRes[u.Index] = u.Result
		if u.Result.Meta != nil && u.Result.Meta.Warm != nil {
			t.Errorf("cold cell %d carries warm meta %+v", u.Index, u.Result.Meta.Warm)
		}
	}
	if !reflect.DeepEqual(engine.StripMeta(warmRes), engine.StripMeta(coldRes)) {
		t.Error("warm sweep payload diverges from cold sweep payload")
	}
}

// TestSweepWarmSharesRunCache boots a server with warm-start on by
// default and checks the cache interplay: a warm sweep's cells land in
// the LRU stripped of metadata, so a later /run of the same parameter
// point is served cached — same payload, no warm provenance leaking
// through — and a per-request "warm": false override still runs cold.
func TestSweepWarmSharesRunCache(t *testing.T) {
	ts := newTestServer(t, Config{WarmStart: true, CacheSize: 16})
	sweep := map[string]any{
		"scenario": "sim/gst",
		"sweep":    "horizon=4,6,8",
		"params":   map[string]any{"n": 24, "gst": 12},
	}
	updates := decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", sweep))
	byHorizon := map[int]engine.Result{}
	warmed := false
	for _, u := range updates {
		if u.Result.Err != "" {
			t.Fatalf("sweep cell %d failed: %s", u.Index, u.Result.Err)
		}
		if u.Result.Meta == nil || u.Result.Meta.Warm == nil {
			t.Fatalf("server-default warm sweep cell %d has no warm meta", u.Index)
		}
		warmed = warmed || u.Result.Meta.Warm.Hit
		byHorizon[u.Result.Params.Horizon] = u.Result
	}
	if !warmed {
		t.Error("server-default warm sweep produced no warm hits")
	}

	resp := postJSON(t, ts.URL+"/run", map[string]any{
		"scenario": "sim/gst",
		"params":   map[string]any{"n": 24, "gst": 12, "horizon": 6},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status = %d", resp.StatusCode)
	}
	var res engine.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Meta == nil || !res.Meta.Cached {
		t.Fatalf("run meta = %+v, want served from the warm sweep's cache entry", res.Meta)
	}
	if res.Meta.Warm != nil {
		t.Errorf("cached run leaked warm provenance: %+v", res.Meta.Warm)
	}
	if !reflect.DeepEqual(res.WithoutMeta(), byHorizon[6].WithoutMeta()) {
		t.Error("cached run payload diverges from the warm sweep cell")
	}

	// The override works the other way too: "warm": false on a
	// warm-default server runs cold.
	coldBody := map[string]any{
		"scenario": "sim/gst",
		"sweep":    "horizon=10",
		"params":   map[string]any{"n": 24, "gst": 12},
		"warm":     false,
	}
	for _, u := range decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", coldBody)) {
		if u.Result.Meta != nil && u.Result.Meta.Warm != nil {
			t.Errorf(`"warm": false cell %d carries warm meta %+v`, u.Index, u.Result.Meta.Warm)
		}
	}
}

// plantCheckpoint leaves in the server's checkpoint store what a worker
// killed at the given epoch of the cell would have, and returns the cell's
// key.
func plantCheckpoint(t *testing.T, s *Server, cell engine.Cell, epoch int) string {
	t.Helper()
	sc, ok := engine.Default.Lookup(cell.Scenario)
	if !ok {
		t.Fatalf("%s not registered", cell.Scenario)
	}
	cs := sc.(engine.CheckpointableScenario)
	pre, err := cs.RunTo(context.Background(), cell.Params.WithDefaults(sc.Defaults()), nil, epoch)
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := cs.EncodePrefix(&blob, pre); err != nil {
		t.Fatal(err)
	}
	key, ok := engine.CanonicalCellKey(nil, cell)
	if !ok {
		t.Fatal("no canonical key")
	}
	if err := s.Checkpoints().SaveCheckpoint(key, blob.Bytes()); err != nil {
		t.Fatal(err)
	}
	return key
}

// TestRunResumesLikeSweep: POST /run goes through the same cell executor
// as a one-cell POST /sweep — a server with a store resumes an interrupted
// checkpointable run from its planted checkpoint, answers the payload the
// sweep answers, counts the resume in /metrics and deletes the checkpoint;
// a scenario without a prefix codec takes the plain path with no store
// probe.
func TestRunResumesLikeSweep(t *testing.T) {
	cell := engine.Cell{Scenario: engine.ScenarioSimLeak, Params: engine.Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1}}
	// Two servers in the same state — one interrupted cell each — so the
	// second ask is not answered from the first one's result store.
	interrupted := func() (*Server, *httptest.Server, string) {
		s, ts := storeServer(t, Config{StoreDir: t.TempDir(), CheckpointEvery: 8, CacheSize: -1})
		return s, ts, plantCheckpoint(t, s, cell, 16)
	}
	sweepSrv, sweepTS, _ := interrupted()
	updates := decodeNDJSON(t, postJSON(t, sweepTS.URL+"/sweep", map[string]any{"cells": []engine.Cell{cell}}))
	if len(updates) != 1 {
		t.Fatalf("streamed %d updates, want 1", len(updates))
	}
	swept := updates[0].Result
	runSrv, runTS, key := interrupted()
	ran := getResult(t, runTS.URL, cell)

	if !reflect.DeepEqual(ran.WithoutMeta(), swept.WithoutMeta()) {
		t.Errorf("/run payload diverges from the one-cell /sweep:\n  run:   %+v\n  sweep: %+v", ran.WithoutMeta(), swept.WithoutMeta())
	}
	for name, res := range map[string]engine.Result{"/sweep": swept, "/run": ran} {
		if ck := res.Meta.Checkpoint; ck == nil || !ck.Resumed || ck.ResumeEpoch != 16 || ck.EpochsSaved != 16 {
			t.Errorf("%s checkpoint meta = %+v, want a resume from epoch 16", name, res.Meta.Checkpoint)
		}
	}
	if _, ok := runSrv.Checkpoints().LoadCheckpoint(key); ok {
		t.Error("completed /run left its checkpoint on disk")
	}
	if a, b := sweepSrv.metrics.cellsResumed.Load(), runSrv.metrics.cellsResumed.Load(); a != 1 || b != 1 {
		t.Errorf("metrics count %d (/sweep) and %d (/run) resumed cells, want 1 and 1", a, b)
	}

	probes := func() uint64 { st := runSrv.Checkpoints().Stats(); return st.Loaded + st.Missed }
	before := probes()
	if res := getResult(t, runTS.URL, engine.Cell{Scenario: "5.2.1", Params: engine.Params{Beta0: 0.2}}); res.Meta.Checkpoint != nil {
		t.Errorf("non-checkpointable /run carries checkpoint meta %+v", res.Meta.Checkpoint)
	}
	if after := probes(); after != before {
		t.Errorf("non-checkpointable /run probed the checkpoint store (%d -> %d probes)", before, after)
	}
}

// TestSweepCheckpointResumeAndMetrics: a server configured with a
// checkpoint store resumes a sweep cell from a planted mid-cell
// checkpoint — exactly what a crash-requeued worker leaves behind —
// streams a payload identical to the cold run, deletes the checkpoint on
// completion, and surfaces the resume in GET /metrics and /healthz.
func TestSweepCheckpointResumeAndMetrics(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), CheckpointEvery: 8, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Plant the checkpoint a killed worker would have left at epoch 16.
	cell := engine.Cell{Scenario: engine.ScenarioSimLeak, Params: engine.Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1}}
	key := plantCheckpoint(t, s, cell, 16)

	updates := decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", map[string]any{"cells": []engine.Cell{cell}}))
	if len(updates) != 1 {
		t.Fatalf("streamed %d updates, want 1", len(updates))
	}
	got := updates[0].Result
	cold, err := engine.Default.RunContext(context.Background(), cell.Scenario, cell.Params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.WithoutMeta(), cold.WithoutMeta()) {
		t.Errorf("resumed sweep payload diverges from cold run:\n  got:  %+v\n  cold: %+v", got.WithoutMeta(), cold.WithoutMeta())
	}
	if ck := got.Meta.Checkpoint; ck == nil || !ck.Resumed || ck.ResumeEpoch != 16 || ck.EpochsSaved != 16 {
		t.Fatalf("checkpoint meta = %+v, want a resume from epoch 16", got.Meta.Checkpoint)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Checkpoints == nil {
		t.Fatal("metrics omit the checkpoints block despite a checkpoint store")
	}
	if m.Checkpoints.Resumed != 1 || m.Checkpoints.EpochsSaved != 16 {
		t.Errorf("metrics resumed=%d epochs_saved=%d, want 1 and 16", m.Checkpoints.Resumed, m.Checkpoints.EpochsSaved)
	}
	if m.Checkpoints.Written == 0 || m.Checkpoints.Loaded != 1 {
		t.Errorf("metrics written=%d loaded=%d, want written>0 loaded=1", m.Checkpoints.Written, m.Checkpoints.Loaded)
	}
	if m.Checkpoints.GCDeleted == 0 {
		t.Error("completed cell did not GC its checkpoint")
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if _, ok := health["checkpoints"]; !ok {
		t.Error("healthz omits the checkpoints block despite a checkpoint store")
	}

	// The completed cell's checkpoint is gone from disk.
	if _, ok := s.Checkpoints().LoadCheckpoint(key); ok {
		t.Error("completed cell's checkpoint survived on disk")
	}
}

// TestServerCheckpointsDisabled: a negative CheckpointEvery opts the
// server out of the checkpoint tier even when a store is configured.
func TestServerCheckpointsDisabled(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), CheckpointEvery: -1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Checkpoints() != nil {
		t.Fatal("negative CheckpointEvery still opened a checkpoint tier")
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Checkpoints != nil {
		t.Fatalf("metrics advertise checkpoints while disabled: %+v", m.Checkpoints)
	}
}

// TestSweepRefusesOversizedSpecPromptly: a few dozen bytes of spec that
// name 10^15 cells, or a range ending at MaxInt64, are refused with 400
// before any cell is expanded or admitted.
func TestSweepRefusesOversizedSpecPromptly(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, spec := range []string{
		"p0=0:1:0.001; beta0=0:1:0.001; gst=1:1000:1; horizon=1:1000:1; seed=1:1000:1",
		"seed=9223372036854775806:9223372036854775807:1; horizon=1:1000000:1",
	} {
		start := time.Now()
		resp := postJSON(t, ts.URL+"/sweep", map[string]any{"scenario": engine.ScenarioLeakSim, "sweep": spec})
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "cells") {
			t.Errorf("%q: status %d %s, want 400 naming the cell limit", spec, resp.StatusCode, body)
		}
		if d := time.Since(start); d > 250*time.Millisecond {
			t.Errorf("%q: refused after %v", spec, d)
		}
	}
}

// TestMetricsReportSpareSimulations: /metrics accounts the process's spare
// simulations. A simulator cell's genesis start resets a spare or builds a
// new simulation, and the finished cell leaves one idle.
func TestMetricsReportSpareSimulations(t *testing.T) {
	ts := newTestServer(t, Config{CacheSize: -1})
	spares := func() engine.SpareStats {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m metricsResponse
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m.Spares
	}
	before := spares()
	resp := postJSON(t, ts.URL+"/run", map[string]any{"scenario": "sim/partition", "params": map[string]any{"n": 16, "horizon": 4}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run: %s", resp.Status)
	}
	after := spares()
	if starts := after.Reset + after.Built - before.Reset - before.Built; starts != 1 || after.Idle < 1 {
		t.Fatalf("spare_sims %+v after one cell, %+v before: want one genesis start and a spare idle", after, before)
	}
}
