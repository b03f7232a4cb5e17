package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// serveProc is one real serve process of the integration fabric.
type serveProc struct {
	cmd  *exec.Cmd
	addr string
	mu   sync.Mutex
	out  bytes.Buffer
}

// Write collects process stderr under the same lock as the stdout
// scanner (exec writes stderr from its own goroutine).
func (p *serveProc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.Write(b)
}

// startServe launches the built binary with the given extra flags on an
// ephemeral port and waits for its "listening on" line and /healthz.
func startServe(t *testing.T, bin string, args ...string) *serveProc {
	t.Helper()
	p := &serveProc{}
	p.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = p
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.cmd.Process != nil {
			p.cmd.Process.Kill() //nolint:errcheck // already-dead is fine
			p.cmd.Wait()         //nolint:errcheck // reaping only
		}
	})

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.out.WriteString(line + "\n")
			p.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				if j := strings.Index(rest, " ("); j >= 0 {
					select {
					case addrc <- rest[:j]:
					default:
					}
				}
			}
		}
	}()
	select {
	case p.addr = <-addrc:
	case <-time.After(15 * time.Second):
		t.Fatalf("serve never announced its address; output:\n%s", p.output())
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(p.url() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve at %s never became healthy; output:\n%s", p.addr, p.output())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (p *serveProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

func (p *serveProc) url() string { return "http://" + p.addr }

// kill terminates the process abruptly (a crash, not a drain).
func (p *serveProc) kill() {
	p.cmd.Process.Kill() //nolint:errcheck // a dead process is the goal
	p.cmd.Wait()         //nolint:errcheck // reaping only
}

// stop interrupts the process (graceful shutdown: drain, then store close).
func (p *serveProc) stop(t *testing.T) {
	t.Helper()
	p.cmd.Process.Signal(os.Interrupt) //nolint:errcheck // checked via Wait below
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck // last resort
		t.Fatalf("serve did not shut down on interrupt; output:\n%s", p.output())
	}
}

// sweepFabric posts the cells and decodes the NDJSON stream.
func sweepFabric(t *testing.T, url string, cells []engine.Cell) []engine.Update {
	t.Helper()
	body, err := json.Marshal(map[string]any{"cells": cells})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	var updates []engine.Update
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var u engine.Update
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		updates = append(updates, u)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return updates
}

// fabricGrid is a small sim/gst grid, cheap enough for CI but multi-cell
// enough to exercise dispatch and requeue.
func fabricGrid(n int) []engine.Cell {
	cells := make([]engine.Cell, n)
	for i := range cells {
		cells[i] = engine.Cell{Scenario: "sim/gst", Params: engine.Params{
			P0: 0.5, N: 3000, GST: 3, Horizon: 5 + i,
		}}
	}
	return cells
}

func resultsByIndex(t *testing.T, updates []engine.Update, n int) []engine.Result {
	t.Helper()
	if len(updates) != n {
		t.Fatalf("streamed %d updates, want %d", len(updates), n)
	}
	out := make([]engine.Result, n)
	for _, u := range updates {
		if u.Result.Err != "" {
			t.Errorf("cell %d surfaced an error: %s", u.Index, u.Result.Err)
		}
		out[u.Index] = u.Result
	}
	return out
}

// TestFabricProcesses is the end-to-end acceptance test with real
// processes: a coordinator with a persistent store dispatches a sweep over
// two plain-serve workers; the merged stream matches an in-process sweep
// bit-identically; a worker killed mid-sweep costs nothing but throughput;
// and after a graceful coordinator restart the whole grid is served from
// the store without any worker at all.
func TestFabricProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fabric test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building serve: %v\n%s", err, out)
	}

	cells := fabricGrid(8)
	want := engine.SweepContext(context.Background(), cells, engine.Options{})

	storeDir := t.TempDir()
	w1 := startServe(t, bin, "-cache", "-1")
	w2 := startServe(t, bin, "-cache", "-1")
	coordA := startServe(t, bin,
		"-store", storeDir,
		"-shard", w1.url()+","+w2.url(),
	)

	got := resultsByIndex(t, sweepFabric(t, coordA.url(), cells), len(cells))
	if !reflect.DeepEqual(engine.StripMeta(got), engine.StripMeta(want)) {
		t.Error("two-worker fabric sweep diverges from in-process sweep")
	}

	// The same grid through a warm coordinator over the same workers: its
	// cells share one prefix, so they travel as one unit — one request, one
	// worker's spine, every cell a warm hit — and the payload does not move.
	coordW := startServe(t, bin, "-warm", "-cache", "-1", "-shard", w1.url()+","+w2.url())
	warmGot := resultsByIndex(t, sweepFabric(t, coordW.url(), cells), len(cells))
	if !reflect.DeepEqual(engine.StripMeta(warmGot), engine.StripMeta(want)) {
		t.Error("warm two-worker fabric sweep diverges from in-process sweep")
	}
	for i, r := range warmGot {
		if r.Meta == nil || r.Meta.Warm == nil || !r.Meta.Warm.Hit {
			t.Errorf("warm fabric cell %d meta = %+v, want a hit on the shared prefix", i, r.Meta)
		}
	}
	var warmMetrics struct {
		Coordinator struct {
			Units  uint64 `json:"units_dispatched"`
			Remote uint64 `json:"cells_remote"`
		} `json:"coordinator"`
	}
	mresp, err := http.Get(coordW.url() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(mresp.Body).Decode(&warmMetrics)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if c := warmMetrics.Coordinator; c.Units != 1 || c.Remote != uint64(len(cells)) {
		t.Errorf("warm fabric sent %d cells in %d requests, want all %d in one", c.Remote, c.Units, len(cells))
	}

	// Kill a worker mid-sweep on a fresh grid (different seeds so nothing
	// is already stored): the grid must still complete without
	// client-visible errors, bit-identical to in-process.
	killCells := make([]engine.Cell, len(cells))
	copy(killCells, cells)
	for i := range killCells {
		killCells[i].Params.Seed = 77
	}
	killWant := engine.SweepContext(context.Background(), killCells, engine.Options{})
	killDone := make(chan []engine.Update, 1)
	go func() {
		body, err := json.Marshal(map[string]any{"cells": killCells})
		if err != nil {
			killDone <- nil
			return
		}
		resp, err := http.Post(coordA.url()+"/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			killDone <- nil
			return
		}
		defer resp.Body.Close()
		var updates []engine.Update
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 16<<20)
		first := true
		for sc.Scan() {
			var u engine.Update
			if json.Unmarshal(sc.Bytes(), &u) != nil {
				killDone <- nil
				return
			}
			updates = append(updates, u)
			if first {
				first = false
				w2.kill() // crash one worker as soon as the sweep is rolling
			}
		}
		killDone <- updates
	}()
	var killUpdates []engine.Update
	select {
	case killUpdates = <-killDone:
	case <-time.After(120 * time.Second):
		t.Fatalf("sweep with a crashing worker never finished; coordinator output:\n%s", coordA.output())
	}
	if killUpdates == nil {
		t.Fatalf("sweep with a crashing worker failed; coordinator output:\n%s", coordA.output())
	}
	killGot := resultsByIndex(t, killUpdates, len(killCells))
	if !reflect.DeepEqual(engine.StripMeta(killGot), engine.StripMeta(killWant)) {
		t.Error("sweep with a crashed worker diverges from in-process sweep")
	}

	// Graceful coordinator restart: the new process — no workers at all —
	// serves the first sweep from the persistent store alone.
	coordA.stop(t)
	w1.kill()
	coordB := startServe(t, bin, "-store", storeDir)
	restored := resultsByIndex(t, sweepFabric(t, coordB.url(), cells), len(cells))
	if !reflect.DeepEqual(engine.StripMeta(restored), engine.StripMeta(want)) {
		t.Error("restarted process's store-served sweep diverges")
	}
	for i, r := range restored {
		if r.Meta == nil || !r.Meta.Cached {
			t.Errorf("restarted cell %d meta = %+v, want served from the store", i, r.Meta)
		}
	}

	// The store survived the graceful shutdown: /healthz on the restarted
	// process reports the persisted entries.
	resp, err := http.Get(coordB.url() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Store *struct {
			Entries int64  `json:"entries"`
			Hits    uint64 `json:"hits"`
		} `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Store == nil || health.Store.Entries < int64(len(cells)) {
		t.Errorf("restarted /healthz store = %+v, want >= %d entries", health.Store, len(cells))
	}
}

// checkpointsWritten reads a server's /metrics checkpoints.written
// counter, or 0 when the server cannot answer.
func checkpointsWritten(url string) uint64 {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var m struct {
		Checkpoints struct {
			Written uint64 `json:"written"`
		} `json:"checkpoints"`
	}
	if json.NewDecoder(resp.Body).Decode(&m) != nil {
		return 0
	}
	return m.Checkpoints.Written
}

// TestFabricCrashResume is the durability acceptance test: a worker
// sharing the coordinator's store directory is killed with SIGKILL while
// deep inside one long-horizon cell. The coordinator requeues the cell,
// its retry finds the dead worker's newest on-disk checkpoint, and the
// stream completes bit-identical to an in-process sweep — with /metrics
// proving the recovery resumed (epochs_saved > 0) instead of recomputing
// from epoch 0.
func TestFabricCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fabric test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building serve: %v\n%s", err, out)
	}

	// One long cell: deep enough that several checkpoint intervals pass
	// before the kill, long enough that losing the prefix would be
	// visible in the requeued retry.
	cells := []engine.Cell{{Scenario: "sim/leak", Params: engine.Params{
		P0: 0.5, N: 1000, Horizon: 3000, Seed: 1,
	}}}
	want := engine.SweepContext(context.Background(), cells, engine.Options{})

	storeDir := t.TempDir()
	worker := startServe(t, bin, "-cache", "-1", "-store", storeDir, "-checkpoint-every", "200")
	coord := startServe(t, bin,
		"-store", storeDir,
		"-checkpoint-every", "200",
		"-shard", worker.url(),
	)

	done := make(chan []engine.Update, 1)
	go func() {
		body, err := json.Marshal(map[string]any{"cells": cells})
		if err != nil {
			done <- nil
			return
		}
		resp, err := http.Post(coord.url()+"/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- nil
			return
		}
		defer resp.Body.Close()
		var updates []engine.Update
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 16<<20)
		for sc.Scan() {
			var u engine.Update
			if json.Unmarshal(sc.Bytes(), &u) != nil {
				done <- nil
				return
			}
			updates = append(updates, u)
		}
		done <- updates
	}()

	// Kill the worker once it has durably checkpointed mid-cell: poll the
	// worker's /metrics until its checkpoint store counts a save, which it
	// does once the entry is on disk — whatever the store's file layout.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if checkpointsWritten(worker.url()) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never wrote a checkpoint; worker output:\n%s", worker.output())
		}
		time.Sleep(25 * time.Millisecond)
	}
	worker.kill()

	var updates []engine.Update
	select {
	case updates = <-done:
	case <-time.After(120 * time.Second):
		t.Fatalf("sweep never finished after the worker crash; coordinator output:\n%s", coord.output())
	}
	if updates == nil {
		t.Fatalf("sweep failed after the worker crash; coordinator output:\n%s", coord.output())
	}
	got := resultsByIndex(t, updates, len(cells))
	if !reflect.DeepEqual(engine.StripMeta(got), engine.StripMeta(want)) {
		t.Error("crash-resumed sweep diverges from in-process sweep")
	}

	// The coordinator's metrics prove the retry resumed from the dead
	// worker's checkpoint rather than recomputing the prefix.
	resp, err := http.Get(coord.url() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Checkpoints *struct {
			Resumed     uint64 `json:"resumed"`
			EpochsSaved uint64 `json:"epochs_saved"`
			GCDeleted   uint64 `json:"gc_deleted"`
		} `json:"checkpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Checkpoints == nil {
		t.Fatalf("coordinator metrics omit the checkpoints block; output:\n%s", coord.output())
	}
	if m.Checkpoints.Resumed < 1 || m.Checkpoints.EpochsSaved == 0 {
		t.Errorf("metrics checkpoints = %+v, want a resume with epochs_saved > 0", m.Checkpoints)
	}
	if m.Checkpoints.GCDeleted == 0 {
		t.Error("completed cell left its checkpoint on disk (no GC)")
	}
}
