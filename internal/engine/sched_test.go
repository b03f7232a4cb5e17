package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// shippedSim labels the subtests of the suites that run the product
// simulator — cohort views over the proto-array, the only one the engine can
// configure. The reference corners of the 2x2 (view layout x fork-choice
// engine) matrix are held bit-identical to it where they live
// (sim.TestCohortKernelMatchesPerValidatorOracle,
// sim.TestSnapshotRestoreDeterminism,
// behavior.TestAdversaryCohortOracleEquivalence).
const shippedSim = "cohort-protoarray"

// equivalenceGrids are the randomized-shape grids the warm-vs-cold suite
// sweeps: small populations, short horizons, every forkable scenario, and
// shapes that exercise multiple groups (two p0 values), multiple branch
// epochs per group, cells sharing a single branch, and — the second grid —
// an entry with two stops and a fork (at epoch 6: gst 6 x horizon 6 and
// gst 9 x horizon 6 end there, gst 6 x horizon 8 continues), so the stops
// are read off the spine's simulation just before a fork may claim it. The
// sim/partition grid's horizons straddle its epoch-26 violation, so its last
// cells are read off a prefix that concluded before them.
func equivalenceGrids() []Grid {
	return []Grid{
		{Scenario: "sim/partition", P0: []float64{0.3, 0.5}, Horizons: []int{20, 26, 30, 40}, N: 16},
		{Scenario: "sim/gst", P0: []float64{0.4, 0.6}, GSTs: []int{2, 4, 5}, Horizons: []int{6, 8}, N: 24},
		{Scenario: "sim/gst", P0: []float64{0.5}, GSTs: []int{6, 9}, Horizons: []int{6, 8}, N: 24},
		{Scenario: "sim/leak", P0: []float64{0.5}, Horizons: []int{8, 10, 12}, N: 20, Sample: 2},
		{Scenario: "sim/semiactive", P0: []float64{0.5}, Beta0: []float64{0.2}, Horizons: []int{8, 11}, N: 20},
		{Scenario: "sim/drops", Rates: []float64{0.2}, Horizons: []int{4, 6}, N: 16},
	}
}

// TestWarmVsColdEquivalence is the determinism invariant of the snapshot
// tree: bit-identical results versus the cold sweep for any worker count,
// whichever goroutine runs each fork.
func TestWarmVsColdEquivalence(t *testing.T) {
	ctx := context.Background()
	t.Run(shippedSim, func(t *testing.T) {
		for _, g := range equivalenceGrids() {
			cells := g.Cells()
			cold := SweepContext(ctx, cells, Options{Workers: 2})
			for _, workers := range []int{1, 2, 3} {
				warm := SweepContext(ctx, cells, Options{Workers: workers, WarmStart: &WarmStartOptions{}})
				if len(warm) != len(cold) {
					t.Fatalf("%s workers=%d: %d results, want %d", g.Scenario, workers, len(warm), len(cold))
				}
				for i := range cold {
					if !reflect.DeepEqual(cold[i].WithoutMeta(), warm[i].WithoutMeta()) {
						t.Errorf("%s workers=%d cell %d (%s): warm diverges from cold\ncold: %+v\nwarm: %+v",
							g.Scenario, workers, i, cells[i].Params, cold[i].WithoutMeta(), warm[i].WithoutMeta())
					}
				}
			}
		}
	})
}

// TestWarmStopsReportNoThroughput: a stop read off a prefix already standing
// at or past its horizon stepped no epoch, so it reports no throughput rather
// than the whole run's epochs over the instant the read took; the same cells
// run cold report their own. This partition violates safety at epoch 26, so
// the spine concludes before every horizon.
func TestWarmStopsReportNoThroughput(t *testing.T) {
	ctx := context.Background()
	cells := Grid{Scenario: "sim/gst", P0: []float64{0.5}, GSTs: []int{1000}, Horizons: []int{28, 32, 36, 40}, N: 16}.Cells()
	for i, r := range SweepContext(ctx, cells, Options{Workers: 1, WarmStart: &WarmStartOptions{}}) {
		if r.Err != "" || r.Meta.Warm == nil || !r.Meta.Warm.Hit {
			t.Fatalf("cell %d: %q, warm meta %+v; want a stop served off the spine", i, r.Err, r.Meta.Warm)
		}
		if r.Meta.EpochsPerSec != 0 {
			t.Errorf("warm stop %d (horizon %d): %v epochs/sec, want none", i, cells[i].Params.Horizon, r.Meta.EpochsPerSec)
		}
	}
	for i, r := range SweepContext(ctx, cells, Options{Workers: 1}) {
		if r.Err != "" || r.Meta.EpochsPerSec <= 0 {
			t.Errorf("cold cell %d: %q, %v epochs/sec, want a positive rate", i, r.Err, r.Meta.EpochsPerSec)
		}
	}
}

// TestWarmStartObservability checks the provenance a warm sweep stamps
// into RunMeta: resumed cells report a hit with the branch epoch and saved
// epochs, and the counters see the prefix tree and the fork copy; stops
// report their whole run saved and leave no snapshot resident.
func TestWarmStartObservability(t *testing.T) {
	ctx := context.Background()
	g := Grid{Scenario: "sim/gst", P0: []float64{0.5}, GSTs: []int{2, 4}, Horizons: []int{6}, N: 24}
	cells := g.Cells()

	warm := SweepContext(ctx, cells, Options{Workers: 1, WarmStart: &WarmStartOptions{}})
	hits := 0
	for i, r := range warm {
		if r.Err != "" {
			t.Fatalf("cell %d failed: %s", i, r.Err)
		}
		if r.Meta == nil || r.Meta.Warm == nil {
			t.Fatalf("cell %d: no warm meta", i)
		}
		w := r.Meta.Warm
		if !w.Hit {
			t.Errorf("cell %d: expected a snapshot hit, got %+v", i, w)
		}
		if w.BranchEpoch != cells[i].Params.GST {
			t.Errorf("cell %d: branch epoch %d, want %d", i, w.BranchEpoch, cells[i].Params.GST)
		}
		if w.EpochsSaved != cells[i].Params.GST {
			t.Errorf("cell %d: epochs saved %d, want %d", i, w.EpochsSaved, cells[i].Params.GST)
		}
		if w.PrefixNodes != 2 {
			t.Errorf("cell %d: prefix nodes %d, want 2", i, w.PrefixNodes)
		}
		if w.PeakResidentBytes <= 0 {
			t.Errorf("cell %d: peak resident bytes %d, want > 0", i, w.PeakResidentBytes)
		}
		hits++
	}
	if hits != len(cells) {
		t.Fatalf("%d hits, want %d", hits, len(cells))
	}

	// In a horizon sweep every cell ends where it branches, so each is a
	// stop — finished on the spine, reported as a hit that saved its whole
	// run — and the group never holds a snapshot.
	stops := Grid{Scenario: "sim/gst", P0: []float64{0.5}, GSTs: []int{30}, Horizons: []int{4, 6, 7}, N: 24}.Cells()
	var last *WarmMeta
	for u := range SweepStream(ctx, stops, Options{Workers: 1, WarmStart: &WarmStartOptions{}}) {
		if u.Result.Err != "" {
			t.Fatalf("stop %d failed: %s", u.Index, u.Result.Err)
		}
		w, h := u.Result.Meta.Warm, stops[u.Index].Params.Horizon
		if w == nil || !w.Hit || w.BranchEpoch != h || w.EpochsSaved != h {
			t.Errorf("stop %d (horizon %d): warm meta %+v, want a hit that branched at and saved its horizon", u.Index, h, w)
		}
		if u.Completed == u.Total {
			last = w
		}
	}
	if last == nil || last.PrefixNodes != 3 || last.SnapshotHits != 3 || last.Rebuilt != 0 || last.PeakResidentBytes != 0 {
		t.Fatalf("all-stop sweep totals %+v, want 3 prefix nodes, 3 hits, no rebuild and no resident snapshot bytes", last)
	}
}

// failOnceAt is a forkable sim scenario whose spine hop to one epoch fails
// the first time, after having consumed the prefix it was extending — what
// a hop that dies mid-run leaves behind.
type failOnceAt struct {
	*simScenario
	epoch  int
	failed bool // only the group's one spine goroutine advances
}

func (f *failOnceAt) advanceTo(ctx context.Context, p Params, from *Prefix, epoch int) (*Prefix, error) {
	if epoch == f.epoch && !f.failed {
		f.failed = true
		if from != nil {
			from.claim()
		}
		return nil, errors.New("scripted hop failure")
	}
	return f.simScenario.advanceTo(ctx, p, from, epoch)
}

// TestWarmStartFailedHop: a hop that fails after a stop-only branch leaves
// the spine holding a prefix with neither a snapshot nor a live simulation.
// The failed branch's cells carry the error; the spine keeps no snapshot to
// go on from, so it restarts from genesis (the second grid has forked at
// epoch 4 by then, off copies of their own), and deeper branches match
// cold.
func TestWarmStartFailedHop(t *testing.T) {
	ctx := context.Background()
	grids := []Grid{
		{Scenario: "sim/leak", P0: []float64{0.5}, Horizons: []int{8, 10, 12}, N: 20},
		{Scenario: "sim/gst", P0: []float64{0.5}, GSTs: []int{4, 9}, Horizons: []int{4, 6, 8}, N: 24},
	}
	for _, g := range grids {
		failEpoch := g.Horizons[1] // a branch with stops only, after one and before another
		cells := g.Cells()
		cold := SweepContext(ctx, cells, Options{Workers: 2})
		for _, workers := range []int{1, 2, 3} {
			inner, _ := Default.Lookup(g.Scenario)
			reg := NewRegistry()
			reg.MustRegister(&failOnceAt{simScenario: inner.(*simScenario), epoch: failEpoch})
			warm := SweepContext(ctx, cells, Options{Workers: workers, Registry: reg, WarmStart: &WarmStartOptions{}})
			for i, c := range cells {
				_, branch, _ := inner.(CheckpointableScenario).Fork(c.Params.WithDefaults(inner.Defaults()))
				if branch == failEpoch {
					if !strings.Contains(warm[i].Err, "scripted hop failure") {
						t.Errorf("%s workers=%d cell %d branches at the failed hop: err %q, want the hop's error", g.Scenario, workers, i, warm[i].Err)
					}
					continue
				}
				if !reflect.DeepEqual(cold[i].WithoutMeta(), warm[i].WithoutMeta()) {
					t.Errorf("%s workers=%d cell %d (%s): diverges from cold after the failed hop\ncold: %+v\nwarm: %+v",
						g.Scenario, workers, i, c.Params, cold[i].WithoutMeta(), warm[i].WithoutMeta())
				}
			}
		}
	}
}

// TestWarmStartConcludedPrefix: when the scenario concludes before the
// group's first branch (this partition finalizes both sides at epoch 26),
// every hop returns the one Done prefix. The stops at epoch 28 and the
// forks at 30 and 35 are all read off it in place — no fork copy is made —
// and nothing is simulated past epoch 26.
func TestWarmStartConcludedPrefix(t *testing.T) {
	ctx := context.Background()
	cells := Grid{Scenario: "sim/gst", P0: []float64{0.5}, GSTs: []int{30, 35}, Horizons: []int{28, 40}, Seeds: []int64{3}, N: 16}.Cells()
	cold := SweepContext(ctx, cells, Options{Workers: 2})
	for i, r := range cold {
		if v, _ := r.Metric("violation_epoch"); r.Err != "" || v == 0 || v >= 28 {
			t.Fatalf("cell %d: violation_epoch %v (err %q); the grid wants a conclusion before its first branch", i, v, r.Err)
		}
	}
	for _, workers := range []int{1, 2, 3} {
		warm := SweepContext(ctx, cells, Options{Workers: workers, WarmStart: &WarmStartOptions{}})
		for i := range cold {
			if !reflect.DeepEqual(cold[i].WithoutMeta(), warm[i].WithoutMeta()) {
				t.Errorf("workers=%d cell %d (%s): warm diverges from cold\ncold: %+v\nwarm: %+v",
					workers, i, cells[i].Params, cold[i].WithoutMeta(), warm[i].WithoutMeta())
			}
			if w := warm[i].Meta.Warm; w == nil || !w.Hit || w.EpochsSaved >= 28 || w.PeakResidentBytes != 0 {
				t.Errorf("workers=%d cell %d: warm meta %+v, want a hit that saved the epochs up to the conclusion and held no fork copy", workers, i, w)
			}
		}
	}
}

// TestWarmStartColdFallback routes a non-forkable scenario (bounce-mc, the
// aggregate Monte-Carlo) and a lone forkable cell through the warm
// scheduler: both must fall back to the cold path and still succeed, with
// Hit=false provenance.
func TestWarmStartColdFallback(t *testing.T) {
	ctx := context.Background()
	cells := []Cell{
		{Scenario: ScenarioBounceMC, Params: Params{N: 40, Horizon: 8, P0: 0.7, Beta0: 0.25, Seed: 19}},
		// A single sim/gst cell shares a prefix with nobody.
		{Scenario: "sim/gst", Params: Params{N: 24, Horizon: 6, GST: 3}},
	}
	cold := SweepContext(ctx, cells, Options{Workers: 2})
	warm := SweepContext(ctx, cells, Options{
		Workers:   2,
		WarmStart: &WarmStartOptions{},
	})
	for i := range cells {
		if warm[i].Err != "" {
			t.Fatalf("cell %d failed: %s", i, warm[i].Err)
		}
		if !reflect.DeepEqual(cold[i].WithoutMeta(), warm[i].WithoutMeta()) {
			t.Errorf("cell %d: cold-fallback result diverges", i)
		}
		if warm[i].Meta == nil || warm[i].Meta.Warm == nil {
			t.Fatalf("cell %d: cold-fallback cell lost warm provenance", i)
		}
		if warm[i].Meta.Warm.Hit {
			t.Errorf("cell %d: cold-fallback cell claims a snapshot hit", i)
		}
	}
}

// TestPrefixGroups pins the grouping the scheduler and the serving layer's
// coordinator both plan from: cells of one scenario and one Fork key are one
// group, whatever lies between them in the grid; groups come in the order of
// their first cell with their cells ascending; and a cell that cannot fork —
// not forkable, unknown, rejected by the scenario, nothing before its branch
// — is a group of its own. The scheduler's plan is these groups: every group
// of two or more is a spine whose cells all hit, every lone cell runs cold.
func TestPrefixGroups(t *testing.T) {
	cells := []Cell{
		0: {Scenario: "sim/gst", Params: Params{N: 24, P0: 0.5, Horizon: 6, GST: 3}},
		1: {Scenario: ScenarioBounceMC, Params: Params{N: 40, Horizon: 8, P0: 0.7, Beta0: 0.25, Seed: 19}},
		2: {Scenario: "sim/gst", Params: Params{N: 24, P0: 0.6, Horizon: 6, GST: 3}},
		3: {Scenario: "sim/gst", Params: Params{N: 24, P0: 0.5, Horizon: 8, GST: 30}}, // gst is not in sim/gst's key
		4: {Scenario: "sim/nope"},
		5: {Scenario: "sim/gst", Params: Params{N: 24, P0: 0.6, Horizon: 5, GST: 3}},
		6: {Scenario: "sim/gst", Params: Params{N: 24, P0: 0.5, Horizon: 6, GST: 0, Explicit: FieldGST}}, // branches at genesis
		7: {Scenario: "sim/gst", Params: Params{N: 24, P0: 0.5, Horizon: 6, GST: -1, Explicit: FieldGST}},
		8: {Scenario: "sim/gst", Params: Params{N: 24, P0: 0.7, Horizon: 6, GST: 3}}, // shares with nobody
		9: {Scenario: "sim/gst", Params: Params{N: 24, P0: 0.5, Horizon: 7, GST: 3}},
	}
	var got [][]int
	for _, g := range PrefixGroups(nil, cells) {
		got = append(got, g.Cells)
	}
	want := [][]int{{0, 3, 9}, {1}, {2, 5}, {4}, {6}, {7}, {8}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PrefixGroups = %v, want %v", got, want)
	}

	warm := SweepContext(context.Background(), cells, Options{Workers: 2, WarmStart: &WarmStartOptions{}})
	for _, g := range want {
		for _, i := range g {
			if warm[i].Meta == nil || warm[i].Meta.Warm == nil {
				continue // cancelled-before-start and unknown cells carry no meta
			}
			if hit := warm[i].Meta.Warm.Hit; hit != (len(g) > 1) {
				t.Errorf("cell %d of group %v: warm hit = %t", i, g, hit)
			}
		}
	}
}

// forkGrid is a fork-heavy sim/gst grid: every gst lies below every horizon,
// so each of its four branch epochs has two forks and no stops.
func forkGrid() Grid {
	return Grid{Scenario: "sim/gst", P0: []float64{0.5}, GSTs: []int{2, 3, 4, 5}, Horizons: []int{7, 8}, N: 24}
}

// TestWarmStartForkCopiesBounded: the spine keeps no snapshot, and a fork
// copy exists only while a worker slot holds it, so the fork copies held at
// once never weigh more than workers x the largest one — whatever the number
// of branches.
func TestWarmStartForkCopiesBounded(t *testing.T) {
	ctx := context.Background()
	g := forkGrid()
	cells := g.Cells()
	sc, _ := Default.Lookup(g.Scenario)
	p := cells[0].Params.WithDefaults(sc.Defaults())
	var largest int64
	for _, b := range g.GSTs {
		pre, err := sc.(CheckpointableScenario).RunTo(ctx, p, nil, b)
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, pre.Snap.Bytes())
	}
	for _, workers := range []int{1, 3} {
		var last *WarmMeta
		for u := range SweepStream(ctx, cells, Options{Workers: workers, WarmStart: &WarmStartOptions{}}) {
			if u.Result.Err != "" {
				t.Fatalf("workers=%d cell %d failed: %s", workers, u.Index, u.Result.Err)
			}
			if u.Completed == u.Total {
				last = u.Result.Meta.Warm
			}
		}
		if last == nil || last.PeakResidentBytes <= 0 {
			t.Fatalf("workers=%d: last cell's warm meta %+v, want fork copies counted", workers, last)
		}
		if bound := int64(workers) * largest; last.PeakResidentBytes > bound {
			t.Errorf("workers=%d: fork copies peaked at %d bytes, want <= %d (%d x the largest copy, %d)",
				workers, last.PeakResidentBytes, bound, workers, largest)
		}
	}
}

// cancelAt is a forkable sim scenario that cancels the sweep when its spine
// is asked to advance to one epoch: the hop fails with the context error and
// every deeper branch fails fast, while forks already handed off run on.
type cancelAt struct {
	*simScenario
	epoch  int
	cancel context.CancelFunc
}

func (c *cancelAt) advanceTo(ctx context.Context, p Params, from *Prefix, epoch int) (*Prefix, error) {
	if epoch == c.epoch {
		c.cancel()
	}
	return c.simScenario.advanceTo(ctx, p, from, epoch)
}

// TestWarmStartCancellation cancels before the sweep starts — every cell
// must be marked with the context error and the stream must close — and
// then mid-spine on the fork-heavy grid: the stream closes promptly, every
// cell either finished as cold does or carries the context error (each at
// or past the cancelled branch does), and no goroutine outlives the sweep.
func TestWarmStartCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := Grid{Scenario: "sim/gst", P0: []float64{0.5}, GSTs: []int{2, 4}, Horizons: []int{6}, N: 24}
	results := SweepContext(ctx, g.Cells(), Options{
		Workers:   2,
		WarmStart: &WarmStartOptions{},
	})
	for i, r := range results {
		if r.Err == "" {
			t.Errorf("cell %d: expected a context error", i)
		}
	}

	fg := forkGrid()
	cells := fg.Cells()
	cold := SweepContext(context.Background(), cells, Options{Workers: 2})
	inner, _ := Default.Lookup(fg.Scenario)
	const cancelEpoch = 4
	for _, workers := range []int{1, 3} {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		reg := NewRegistry()
		reg.MustRegister(&cancelAt{simScenario: inner.(*simScenario), epoch: cancelEpoch, cancel: cancel})
		done := make(chan []Result)
		go func() {
			done <- SweepContext(ctx, cells, Options{Workers: workers, Registry: reg, WarmStart: &WarmStartOptions{}})
		}()
		var warm []Result
		select {
		case warm = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: the stream did not close after a mid-spine cancellation", workers)
		}
		cancel()
		for i, c := range cells {
			switch {
			case strings.Contains(warm[i].Err, context.Canceled.Error()):
			case c.Params.GST >= cancelEpoch:
				t.Errorf("workers=%d cell %d branches at or past the cancelled hop: err %q, want the context error", workers, i, warm[i].Err)
			case !reflect.DeepEqual(cold[i].WithoutMeta(), warm[i].WithoutMeta()):
				t.Errorf("workers=%d cell %d finished before the cancellation but diverges from cold\ncold: %+v\nwarm: %+v",
					workers, i, cold[i].WithoutMeta(), warm[i].WithoutMeta())
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("workers=%d: %d goroutines after the sweep, %d before", workers, n, baseline)
		}
	}
}

// cancelAfter is a forkable sim scenario that cancels the sweep once its
// spine's hop to one epoch has succeeded and its cell at (holdHorizon,
// holdGST) has started, so that epoch's cells are handed a good prefix on a
// dead context. The held cell waits in ResumeFrom until release is closed.
type cancelAfter struct {
	*simScenario
	epoch                int
	cancel               context.CancelFunc
	holdHorizon, holdGST int
	held, release        chan struct{}
}

func (c *cancelAfter) advanceTo(ctx context.Context, p Params, from *Prefix, epoch int) (*Prefix, error) {
	pre, err := c.simScenario.advanceTo(ctx, p, from, epoch)
	if epoch == c.epoch {
		select {
		case <-c.held:
		case <-time.After(10 * time.Second): // the plan went wrong; the test says so
		}
		c.cancel()
	}
	return pre, err
}

func (c *cancelAfter) ResumeFrom(ctx context.Context, pre *Prefix, p Params) (Result, error) {
	if p.Horizon == c.holdHorizon && p.GST == c.holdGST {
		close(c.held)
		<-c.release
	}
	return c.simScenario.ResumeFrom(ctx, pre, p)
}

// TestWarmStartHitAccounting pins when a warm cell counts as a snapshot
// hit: once it has started off the prefix its spine handed it, not when it
// was handed one and failed before starting. On the fork-heavy grid with two
// workers, the first fork at epoch 2 runs on the free worker and waits
// there; the spine runs every later cell itself. The sweep is cancelled
// once that fork has started and the hop to epoch 3 has succeeded, so both
// forks there get a prefix and fail on the cancelled context, as do the
// cells past them. The
// waiting fork is released once every other cell is out, so it completes
// last, carrying the sweep's hit count: the two cells that started.
func TestWarmStartHitAccounting(t *testing.T) {
	g := forkGrid()
	cells := g.Cells()
	inner, _ := Default.Lookup(g.Scenario)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc := &cancelAfter{simScenario: inner.(*simScenario), epoch: 3, cancel: cancel,
		holdHorizon: g.Horizons[0], holdGST: g.GSTs[0], held: make(chan struct{}), release: make(chan struct{})}
	reg := NewRegistry()
	reg.MustRegister(sc)
	var once sync.Once
	release := func() { once.Do(func() { close(sc.release) }) }
	stuck := time.AfterFunc(20*time.Second, func() {
		t.Error("the held fork was never released: the sweep did not run as planned")
		release()
	})
	defer stuck.Stop()

	var last Update
	started := 0
	for u := range SweepStream(ctx, cells, Options{Workers: 2, Registry: reg, WarmStart: &WarmStartOptions{}}) {
		last = u
		c, m := cells[u.Index].Params, u.Result.Meta
		switch {
		case c.GST < sc.epoch: // started off a good prefix
			if m == nil || m.Warm == nil || !m.Warm.Hit || m.Warm.EpochsSaved != c.GST {
				t.Errorf("cell %d (%s): meta %+v, want a hit that saved %d epochs", u.Index, c, m, c.GST)
			} else {
				started++
			}
		case !strings.Contains(u.Result.Err, context.Canceled.Error()) || m != nil:
			t.Errorf("cell %d (%s): err %q, meta %+v; want the context error and no meta, as it failed before starting", u.Index, c, u.Result.Err, m)
		}
		if u.Completed == u.Total-1 {
			release()
		}
	}
	if c := cells[last.Index].Params; c.Horizon != sc.holdHorizon || c.GST != sc.holdGST {
		t.Fatalf("cell %d (%s) completed last, want the held fork", last.Index, c)
	}
	if started != 2 {
		t.Errorf("%d cells started off a prefix, want the two forks at epoch 2", started)
	}
	if got := last.Result.Meta.Warm.SnapshotHits; got != started {
		t.Errorf("the last cell reports %d snapshot hits, want %d: the cells that started off a prefix", got, started)
	}
}

// TestWarmStartErrorCells runs a grid whose cells are invalid for the
// scenario: the warm scheduler must surface the same per-cell errors the
// cold sweep does.
func TestWarmStartErrorCells(t *testing.T) {
	ctx := context.Background()
	cells := []Cell{
		{Scenario: "sim/gst", Params: Params{N: 24, Horizon: 6, GST: -1, Explicit: FieldGST}},
		{Scenario: "sim/nope", Params: Params{N: 8}},
		{Scenario: "sim/gst", Params: Params{N: 24, Horizon: 6, GST: 2}},
		{Scenario: "sim/gst", Params: Params{N: 24, Horizon: 8, GST: 2}},
	}
	cold := SweepContext(ctx, cells, Options{Workers: 2})
	warm := SweepContext(ctx, cells, Options{
		Workers:   2,
		WarmStart: &WarmStartOptions{},
	})
	for i := range cells {
		if !reflect.DeepEqual(cold[i].WithoutMeta(), warm[i].WithoutMeta()) {
			t.Errorf("cell %d: warm error handling diverges\ncold: %+v\nwarm: %+v",
				i, cold[i].WithoutMeta(), warm[i].WithoutMeta())
		}
	}
}

// TestSweepWarmStartKeepsCheckpoints: Options.WarmStart and
// Options.Checkpoint compose. A cell the scheduler starts at genesis (here
// the lone member of its prefix group) still runs under the durable
// policy: cancelled mid-run it leaves its newest checkpoint, and the
// re-run resumes from it with a payload identical to the cold run's.
func TestSweepWarmStartKeepsCheckpoints(t *testing.T) {
	cell := Cell{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1}}
	cold := SweepContext(context.Background(), []Cell{cell}, Options{Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ms := newMemStore()
	ms.afterSave = func(saves int) {
		if saves == 2 {
			cancel()
		}
	}
	opt := Options{
		Workers:    1,
		WarmStart:  &WarmStartOptions{},
		Checkpoint: &CheckpointOptions{Every: 8, Store: ms},
	}
	if interrupted := SweepContext(ctx, []Cell{cell}, opt); interrupted[0].Err == "" {
		t.Fatal("cancelled cell reported no error")
	}
	if n := ms.len(); n != 1 {
		t.Fatalf("store holds %d checkpoints after the interrupted warm sweep, want 1", n)
	}

	ms.afterSave = nil
	resumed := SweepContext(context.Background(), []Cell{cell}, opt)
	if got, want := StripMeta(resumed), StripMeta(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed warm sweep diverged from the cold run:\n  resumed: %+v\n  cold:    %+v", got, want)
	}
	meta := resumed[0].Meta
	if meta.Checkpoint == nil || !meta.Checkpoint.Resumed || meta.Checkpoint.ResumeEpoch != 16 {
		t.Fatalf("checkpoint meta %+v, want resumed from epoch 16", meta.Checkpoint)
	}
	if meta.Warm == nil || meta.Warm.Hit {
		t.Fatalf("warm meta %+v, want a cell started outside the snapshot tree", meta.Warm)
	}
	if n := ms.len(); n != 0 {
		t.Fatalf("store holds %d checkpoints after completion, want 0", n)
	}
}
