package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestScenariosDeclareWhatTheyRead holds every registered scenario to the
// dimensions it declares (NewScenario, simRow, paperRow). Its defaults set
// none it does not read. Setting an undeclared dimension leaves the cell's
// canonical key alone, and setting a declared one changes it. And the
// runner itself never reads an undeclared dimension: handed resolved
// params with one undeclared dimension set anyway, it returns the payload
// it returns without it, or rejects the value (core.ErrBadParams: 5.1's
// all-honest LeakSim refuses a Byzantine stake, which resolve always
// zeroes), so no declaration is narrower than what its runner reads.
// Small cells keep the sim scenarios cheap; 5.3 (a fixed 500-validator
// Monte-Carlo) skips the runner half.
func TestScenariosDeclareWhatTheyRead(t *testing.T) {
	// Each value must move the payload of a runner that reads it: gst 15,
	// say, heals sim/gst's 16-epoch cell too late for finality to recover.
	perturbed := Params{P0: 0.37, Beta0: 0.13, Mode: "semi", Seed: 7, N: 24, Horizon: 12, Sample: 2, Rate: 0.1, GST: 15}
	small := map[string]Params{
		ScenarioBounceMC:      {N: 50, Horizon: 400},
		ScenarioSimBounce:     {N: 40},
		ScenarioSimDrops:      {N: 64},
		ScenarioSimGST:        {N: 64},
		ScenarioSimLeak:       {N: 16, Horizon: 20},
		ScenarioSimSemiActive: {N: 40, Horizon: 20},
	}
	// set returns p with dimension d at its perturbed value.
	set := func(p Params, d paramDim) Params {
		reflect.ValueOf(&p).Elem().Field(d.pi).Set(reflect.ValueOf(perturbed).Field(d.pi))
		return p
	}
	ctx := context.Background()
	for _, name := range Default.Names() {
		sc, _ := Default.Lookup(name)
		reads, def := sc.reads(), sc.Defaults()
		if def.resolved(Params{}, reads) != def.WithDefaults(Params{}) {
			t.Errorf("%s: defaults %v set a dimension it does not read", name, def)
		}
		base := small[name]
		key, _ := CanonicalCellKey(Default, Cell{Scenario: name, Params: base})
		_, p, _ := resolve(Default, Cell{Scenario: name, Params: base})
		// sim/drops's population ignores p0, yet every sim/drops result
		// has carried its default 0.5; undeclaring p0 would stamp 0.
		if name == ScenarioSimDrops && (reads&FieldP0 == 0 || p.P0 != 0.5) {
			t.Errorf("%s: p0 declared %v, resolved to %v; want declared, 0.5", name, reads&FieldP0 != 0, p.P0)
		}
		want, err := sc.Run(ctx, p)
		if err != nil {
			t.Errorf("%s %v: %v", name, p, err)
		}
		for _, dim := range paramDims {
			declared := reads&dim.field != 0
			k, _ := CanonicalCellKey(Default, Cell{Scenario: name, Params: set(base, dim)})
			if (k != key) != declared {
				t.Errorf("%s: %s declared %v, but setting it changes the key: %v", name, dim.key, declared, k != key)
			}
			if declared || name == ScenarioBounce {
				continue
			}
			got, err := sc.Run(ctx, set(p, dim))
			if errors.Is(err, core.ErrBadParams) {
				continue
			}
			if err != nil || !reflect.DeepEqual(got.WithoutMeta(), want.WithoutMeta()) {
				t.Errorf("%s reads %s, which it does not declare:\n%v (%v)\nwant %v", name, dim.key, got, err, want)
			}
		}
	}
}
