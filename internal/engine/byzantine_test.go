package engine

import (
	"context"
	"testing"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestByzantineValidatorsHoldNoView: the adversary rows' populations
// materialize one view per honest partition and none for the Byzantine
// validators, and after a run nothing is held for the sender id they share,
// the one past the endpoints.
func TestByzantineValidatorsHoldNoView(t *testing.T) {
	for i := range simRows {
		row := &simRows[i]
		if row.name != ScenarioSimSemiActive && row.name != ScenarioSimBounce {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			p := row.defaults
			p.N, p.Horizon = 64, 12
			if err := row.validate(p); err != nil {
				t.Fatal(err)
			}
			cfg := row.config(p)
			s, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			byzantine := map[types.ValidatorIndex]bool{}
			for _, b := range cfg.Byzantine {
				byzantine[b] = true
			}
			partitions := map[int]bool{}
			for v := range types.ValidatorIndex(p.N) {
				if !byzantine[v] {
					partitions[cfg.PartitionOf(v)] = true
				}
			}
			if len(cfg.Byzantine) == 0 || len(s.Cohorts()) != len(partitions) || s.Stats().Cohorts != len(partitions) {
				t.Fatalf("%d Byzantine validators, %d cohorts (stats %d); want some, and one cohort per honest partition (%d)",
					len(cfg.Byzantine), len(s.Cohorts()), s.Stats().Cohorts, len(partitions))
			}
			if s.HomeView(cfg.Byzantine[0]) != nil || s.View(cfg.Byzantine[0]) != nil {
				t.Fatal("a Byzantine validator holds a view")
			}
			if err := s.RunEpochs(p.Horizon); err != nil {
				t.Fatal(err)
			}
			sender := network.NodeID(len(s.Cohorts()))
			if n := s.Net.PendingFor(sender); n != 0 || s.Net.Deliveries(sender, s.Slot()) != nil {
				t.Fatalf("%d messages held for the Byzantine sender", n)
			}
		})
	}
}

// TestBouncerStopsWhenFinalityPassesTheFork pins the bouncing attack's end
// on a sim/bounce cell whose finality passes the fork while the attack
// runs: once the representatives' views finalize past the fork they prune
// its anchors, and the Bouncer releases no more, well before its Stop.
// Without that stop the same cell reads 27 releases and 383 bounces.
func TestBouncerStopsWhenFinalityPassesTheFork(t *testing.T) {
	res, err := RunCell(context.Background(), Cell{Scenario: ScenarioSimBounce, Params: Params{N: 64, Horizon: 40, Seed: 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	releases, _ := res.Metric("releases")
	bounces, _ := res.Metric("bounces")
	atStop, _ := res.Metric("finalized_at_stop")
	if releases != 22 || bounces != 301 || atStop <= float64(res.Params.GST) {
		t.Fatalf("releases %v, bounces %v, finalized at the stop %v; want 22, 301 and past the fork at epoch %d",
			releases, bounces, atStop, res.Params.GST)
	}
}
