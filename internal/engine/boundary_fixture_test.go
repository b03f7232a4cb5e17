package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var writeBoundary = flag.Bool("write-boundary", false,
	"rewrite testdata/boundary-payloads.json from this build's sim payloads")

// boundaryFixtureCells are the cells testdata/boundary-payloads.json pins:
// runs whose boundaries go on for thousands of epochs without a
// supermajority link, cross 2/3 again, or move duty views. sim/leak runs to
// its conflicting finalization at 4668 with its stake curve sampled (every
// sample reads each view's in-set total); sim/gst heals after the leak has
// started, so late votes bring the window's links back over 2/3; sim/bounce
// reassigns duty views every epoch; sim/semiactive at β0 = 0.33 finalizes
// conflicting branches at 573 through the Byzantine gait.
func boundaryFixtureCells() []Cell {
	cells := []Cell{
		{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 16, Seed: 1, Sample: 100}},
		{Scenario: ScenarioSimLeak, Params: Params{P0: 0.6, N: 24, Seed: 2, Sample: 500}},
		{Scenario: ScenarioSimSemiActive, Params: Params{P0: 0.5, Beta0: 0.33, N: 200, Seed: 1, Sample: 10}},
		{Scenario: ScenarioSimBounce, Params: Params{P0: 0.7, Beta0: 0.25, N: 200, Horizon: 24, Seed: 19, GST: 3}},
		{Scenario: ScenarioSimBounce, Params: Params{P0: 0.7, Beta0: 0.25, N: 200, Horizon: 24, Seed: 7, GST: 3}},
	}
	for _, gst := range []int{6, 8, 12} {
		cells = append(cells, Cell{Scenario: ScenarioSimGST, Params: Params{P0: 0.5, N: 64, Horizon: 24, Seed: 3, GST: gst}})
	}
	return cells
}

// TestBoundaryPayloadsMatchFixture: the payloads of those cells, meta
// stripped, are byte for byte what the simulator wrote while every boundary
// tallied its whole FFG window, summed each view's stake afresh and
// re-bucketed every slot's attesters.
func TestBoundaryPayloadsMatchFixture(t *testing.T) {
	const fixture = "testdata/boundary-payloads.json"
	results := SweepContext(context.Background(), boundaryFixtureCells(), Options{Workers: 2})
	got, err := json.MarshalIndent(StripMeta(results), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *writeBoundary {
		if err := os.WriteFile(fixture, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		line := 0
		for line < min(len(gl), len(wl)) && bytes.Equal(gl[line], wl[line]) {
			line++
		}
		t.Errorf("payloads differ from the fixture first at line %d (%d lines, want %d)", line+1, len(gl), len(wl))
	}
}
