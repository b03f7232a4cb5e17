package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// drainSpares empties the spare list, so the next genesis start builds a
// new simulation.
func drainSpares() {
	spares.Lock()
	defer spares.Unlock()
	spares.free = nil
}

// TestRecycledSimulationMatchesFixture: sim/partition's fixture grid, run
// cell by cell in shuffled order — each cell starting on the simulation the
// cell before it finished, whatever its validator count, and every seventh
// after a cell cancelled mid-run — reproduces the fixture byte for byte.
func TestRecycledSimulationMatchesFixture(t *testing.T) {
	drainSpares()
	cells := partitionFixtureCells()
	results := make([]Result, len(cells))
	for k, i := range rand.New(rand.NewSource(31)).Perm(len(cells)) {
		if k%7 == 0 {
			ctx := &errAfter{Context: context.Background(), calls: 1 + k%5}
			_, _ = RunCell(ctx, cells[(i+1)%len(cells)], Options{})
		}
		results[i], _ = RunCell(context.Background(), cells[i], Options{}) // the fixture records the two rejected counts' errors
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
// cohort and an adversary that the row attaches. The last two are sim/gst
// cells healing at epoch 10: the first ends before the heal, holding the
// other side's traffic for it, and the second, on another seed, delivers
// its own at the same slot.
func recycleCells() []Cell {
	return []Cell{
		{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 20, Horizon: 12, Seed: 1, Sample: 3}},
		{Scenario: ScenarioSimSemiActive, Params: Params{P0: 0.5, Beta0: 0.2, N: 20, Horizon: 11, Seed: 1}},
		{Scenario: ScenarioSimGST, Params: Params{P0: 0.4, N: 24, Horizon: 8, GST: 4, Seed: 2}},
		{Scenario: ScenarioSimDrops, Params: Params{Rate: 0.2, N: 16, Horizon: 6, Seed: 1}},
		{Scenario: ScenarioSimPartition, Params: Params{P0: 0.5, N: 16, Horizon: 30, Seed: 3}},
		{Scenario: ScenarioSimGST, Params: Params{P0: 0.5, N: 24, Horizon: 8, GST: 10, Seed: 4}},
		{Scenario: ScenarioSimGST, Params: Params{P0: 0.5, N: 24, Horizon: 12, GST: 10, Seed: 5}},
	}
}

// TestRecycledCellsMatchFresh: every simulator row's cells give the same
// payload on a recycled simulation as on a new one — cell by cell in
// shuffled order, after cancelled cells, the two sim/gst cells back to back
// on one spare (the second would deliver any held message the first left
// in it), and through sweeps whose workers share the spares (cold, warm,
// checkpointed).
func TestRecycledCellsMatchFresh(t *testing.T) {
	ctx := context.Background()
	cells := recycleCells()
	fresh := make([]Result, len(cells))
	for i, c := range cells {
		drainSpares()
		var err error
		if fresh[i], err = RunCell(ctx, c, Options{}); err != nil {
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
		drainSpares()
		order := rand.New(rand.NewSource(7)).Perm(3 * len(cells))
		for k, j := range order {
			i := j % len(cells)
			if k%2 == 1 {
				_, _ = RunCell(&errAfter{Context: ctx, calls: 1 + k%4}, cells[(i+k)%len(cells)], Options{})
			}
			res, err := RunCell(ctx, cells[i], Options{})
			if err != nil {
				t.Fatal(err)
			}
			check("one-by-one", i, res)
		}
	})

	t.Run("held-traffic-back-to-back", func(t *testing.T) {
		// frame runs cell i on the spare given back last, or on a new
		// simulation when none is idle, and returns the snapshot frame of
		// the simulation the cell gives back.
		frame := func(i int) []byte {
			t.Helper()
			res, err := RunCell(ctx, cells[i], Options{})
			if err != nil {
				t.Fatal(err)
			}
			check("held-traffic-back-to-back", i, res)
			s := spare()
			if s == nil {
				t.Fatal("the cell gave no simulation back")
			}
			defer recycle(s)
			var buf bytes.Buffer
			if _, err := s.Snapshot().WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		held, heal := len(cells)-2, len(cells)-1
		drainSpares()
		want := map[int][]byte{held: frame(held)}
		if s := spare(); s.Net.PendingFor(0)+s.Net.PendingFor(1) == 0 {
			t.Fatal("the cell ending before the heal holds no traffic for it")
		}
		drainSpares()
		want[heal] = frame(heal)
		drainSpares()
		for _, i := range []int{held, heal, held, heal} {
			if !bytes.Equal(frame(i), want[i]) {
				t.Errorf("cell %d (%s) left a different simulation on a recycled spare than on a new one", i, cells[i].Params)
			}
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
// a genesis start resets the spare given back last, whatever its validator
// count, and counts whether it reset one or built anew; at most GOMAXPROCS
// spares stay idle; a stop read off a lent prefix leaves the prefix's
// simulation where it is; a cold cell, a spine whose last branch has no
// fork and the checkpoint runner each give theirs back.
func TestSpareSimulations(t *testing.T) {
	drainSpares()
	ctx := context.Background()
	sc, _ := Default.Lookup(ScenarioSimPartition)
	row, p := sc.(*simScenario), sc.Defaults()
	other := p
	other.N, other.Seed = 24, 9

	before := Spares()
	s, err := positionSim(row.row.config(p), nil)
	if err != nil {
		t.Fatal(err)
	}
	recycle(s)
	if got := Spares(); got.Idle != 1 || got.Built != before.Built+1 || got.Reset != before.Reset {
		t.Fatalf("after a build and a recycle: %+v, was %+v", got, before)
	}
	again, err := positionSim(row.row.config(other), nil)
	if err != nil || again != s {
		t.Fatalf("a genesis start of another validator count did not reset the spare (err %v)", err)
	}
	if got := Spares(); got.Idle != 0 || got.Built != before.Built+1 || got.Reset != before.Reset+1 {
		t.Fatalf("after a reset: %+v, was %+v", got, before)
	}
	for range runtime.GOMAXPROCS(0) + 1 {
		recycle(new(sim.Simulation))
	}
	if got := Spares().Idle; got != runtime.GOMAXPROCS(0) {
		t.Fatalf("%d spares idle after GOMAXPROCS+1 were given back, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	drainSpares()

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
	if spare() != nil {
		t.Fatal("a stop read off a lent prefix gave a simulation back")
	}

	for _, run := range []struct {
		name string
		do   func() error
	}{
		{"cold cell", func() error { _, err := RunCell(ctx, Cell{Scenario: ScenarioSimPartition}, Options{}); return err }},
		{"stop-only spine", func() error {
			cells := Grid{Scenario: ScenarioSimPartition, Horizons: []int{5, 6}}.Cells()
			return FirstError(SweepContext(ctx, cells, Options{Workers: 1, WarmStart: &WarmStartOptions{}}))
		}},
		{"checkpoint runner", func() error {
			_, err := RunCell(ctx, Cell{Scenario: ScenarioSimPartition}, Options{Checkpoint: &CheckpointOptions{Every: 8, Store: newMemStore()}})
			return err
		}},
	} {
		drainSpares()
		if err := run.do(); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if spare() == nil {
			t.Errorf("a %s gave no simulation back", run.name)
		}
	}
}
