package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
)

// pinSpares makes the spare-simulation pool deterministic for the rest of
// the test, and empties it: with one P the next Get returns what the last
// Put stored, and with no collection the pool is not emptied between cells.
func pinSpares(t *testing.T) {
	t.Helper()
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
	drainSpares()
}

// drainSpares empties the spare-simulation pool, so the next genesis start
// builds a new simulation.
func drainSpares() {
	for spareSims.Get() != nil {
	}
}

// TestRecycledSimulationMatchesFixture: sim/partition's fixture grid, run
// cell by cell in shuffled order — each cell starting on the simulation the
// cell before it finished, whatever its validator count, and every seventh
// after a cell cancelled mid-run — reproduces the fixture byte for byte.
func TestRecycledSimulationMatchesFixture(t *testing.T) {
	pinSpares(t)
	cells := partitionFixtureCells()
	results := make([]Result, len(cells))
	for k, i := range rand.New(rand.NewSource(31)).Perm(len(cells)) {
		if k%7 == 0 {
			ctx := &errAfter{Context: context.Background(), calls: 1 + k%5}
			_, _ = RunCell(ctx, nil, cells[(i+1)%len(cells)], nil)
		}
		results[i], _ = RunCell(context.Background(), nil, cells[i], nil) // the fixture records the two rejected counts' errors
	}
	got, err := json.MarshalIndent(StripMeta(results), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/partition-pr27.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatal("cells run on recycled simulations differ from the fixture")
	}
}

// recycleCells mixes every simulator row, validator counts, a Byzantine
// cohort and an adversary that the row attaches.
func recycleCells() []Cell {
	return []Cell{
		{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 20, Horizon: 12, Seed: 1, Sample: 3}},
		{Scenario: ScenarioSimSemiActive, Params: Params{P0: 0.5, Beta0: 0.2, N: 20, Horizon: 11, Seed: 1}},
		{Scenario: ScenarioSimGST, Params: Params{P0: 0.4, N: 24, Horizon: 8, GST: 4, Seed: 2}},
		{Scenario: ScenarioSimDrops, Params: Params{Rate: 0.2, N: 16, Horizon: 6, Seed: 1}},
		{Scenario: ScenarioSimPartition, Params: Params{P0: 0.5, N: 16, Horizon: 30, Seed: 3}},
	}
}

// TestRecycledCellsMatchFresh: every simulator row's cells give the same
// payload on a recycled simulation as on a new one — cell by cell in
// shuffled order, after cancelled cells, and through sweeps whose workers
// share the pool (cold, warm, checkpointed).
func TestRecycledCellsMatchFresh(t *testing.T) {
	ctx := context.Background()
	cells := recycleCells()
	fresh := make([]Result, len(cells))
	for i, c := range cells {
		drainSpares()
		var err error
		if fresh[i], err = RunCell(ctx, nil, c, nil); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, i int, got Result) {
		t.Helper()
		if !reflect.DeepEqual(got.WithoutMeta(), fresh[i].WithoutMeta()) {
			t.Errorf("%s: cell %d (%s) on a recycled simulation diverged:\n  recycled: %+v\n  fresh:    %+v",
				name, i, cells[i].Scenario, got.WithoutMeta(), fresh[i].WithoutMeta())
		}
	}

	t.Run("one-by-one", func(t *testing.T) {
		pinSpares(t)
		order := rand.New(rand.NewSource(7)).Perm(3 * len(cells))
		for k, j := range order {
			i := j % len(cells)
			if k%2 == 1 {
				_, _ = RunCell(&errAfter{Context: ctx, calls: 1 + k%4}, nil, cells[(i+k)%len(cells)], nil)
			}
			res, err := RunCell(ctx, nil, cells[i], nil)
			if err != nil {
				t.Fatal(err)
			}
			check("one-by-one", i, res)
		}
	})

	var many []Cell
	for range 4 {
		many = append(many, cells...)
	}
	for _, run := range []struct {
		name string
		opt  Options
	}{
		{"sweep-cold", Options{Workers: 3}},
		{"sweep-warm", Options{Workers: 3, WarmStart: &WarmStartOptions{}}},
		{"sweep-checkpointed", Options{Workers: 3, Checkpoint: &CheckpointOptions{Every: 4, Store: newMemStore()}}},
	} {
		for i, res := range SweepContext(ctx, many, run.opt) {
			check(run.name, i%len(cells), res)
		}
	}
}

// TestSpareSimulations pins who gives a simulation back and who takes one:
// a genesis start resets a spare whatever its validator count; a stop read
// off a lent prefix leaves the prefix's simulation where it is; a cold
// cell, a spine whose last branch has no fork and the checkpoint runner
// each give theirs back. Under the race detector the pool drops a quarter
// of what it is given, so each positive check gets twenty tries.
func TestSpareSimulations(t *testing.T) {
	pinSpares(t)
	ctx := context.Background()
	sc, _ := Default.Lookup(ScenarioSimPartition)
	row, p := sc.(*simScenario), sc.Defaults()
	other := p
	other.N, other.Seed = 24, 9
	eventually := func(what string, ok func() bool) {
		t.Helper()
		for range 20 {
			drainSpares()
			if ok() {
				return
			}
		}
		t.Errorf("%s: never, in twenty tries", what)
	}

	eventually("a genesis start resets a spare of another validator count", func() bool {
		s, err := positionSim(row.row.config(p), nil)
		if err != nil {
			t.Fatal(err)
		}
		recycle(s)
		again, err := positionSim(row.row.config(other), nil)
		return err == nil && again == s
	})

	stop := p
	stop.Horizon = 10
	lent, err := row.advanceTo(ctx, p, nil, stop.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := row.ResumeFrom(ctx, lent, stop); err != nil {
		t.Fatal(err)
	}
	if lent.live() == nil {
		t.Fatal("the stop took the lent prefix's simulation")
	}
	if spare := spareSims.Get(); spare != nil {
		t.Fatal("a stop read off a lent prefix gave a simulation back")
	}

	for _, run := range []struct {
		name string
		do   func() error
	}{
		{"cold cell", func() error { _, err := RunCell(ctx, nil, Cell{Scenario: ScenarioSimPartition}, nil); return err }},
		{"stop-only spine", func() error {
			cells := Grid{Scenario: ScenarioSimPartition, Horizons: []int{5, 6}}.Cells()
			return FirstError(SweepContext(ctx, cells, Options{Workers: 1, WarmStart: &WarmStartOptions{}}))
		}},
		{"checkpoint runner", func() error {
			_, err := RunCell(ctx, nil, Cell{Scenario: ScenarioSimPartition}, &CheckpointOptions{Every: 8, Store: newMemStore()})
			return err
		}},
	} {
		eventually("a "+run.name+" gives its simulation back", func() bool {
			if err := run.do(); err != nil {
				t.Fatalf("%s: %v", run.name, err)
			}
			return spareSims.Get() != nil
		})
	}
}
