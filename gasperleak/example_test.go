package gasperleak_test

import (
	"context"
	"fmt"
	"log"

	"repro/gasperleak"
)

// Reproduce the paper's headline numbers through the client API, each
// scenario a named registry entry run through a cancellable context: a
// lasting 50/50 partition finalizes conflicting chains once the leak has
// drained the unreachable half (Section 5.1); double-voting Byzantine stake
// of 20 % and 33 % makes that ~1.5x and ~10x faster (5.2.1), and the
// non-slashable attack nearly as fast (5.2.2); and the closed-form minimum
// Byzantine proportion that can cross 1/3 on both branches (5.2.3).
func Example_quickstart() {
	ctx := context.Background()
	c, err := gasperleak.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	run := func(name string, p gasperleak.ScenarioParams) gasperleak.ScenarioResult {
		res, err := c.Run(ctx, name, p)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	epochOf := func(r gasperleak.ScenarioResult) string {
		v, _ := r.Metric("sim_epoch")
		return gasperleak.FormatEpoch(v)
	}

	fmt.Printf("honest only:     conflicting finalization after %s\n",
		epochOf(run("5.1", gasperleak.ScenarioParams{P0: 0.5})))
	fmt.Printf("double voting:   conflicting finalization after %s\n",
		epochOf(run("5.2.1", gasperleak.ScenarioParams{P0: 0.5, Beta0: 0.2})))
	fmt.Printf("beta0=0.33:      conflicting finalization after %s\n",
		epochOf(run("5.2.1", gasperleak.ScenarioParams{P0: 0.5, Beta0: 0.33})))
	fmt.Printf("non-slashable:   conflicting finalization after %s\n",
		epochOf(run("5.2.2", gasperleak.ScenarioParams{P0: 0.5, Beta0: 0.33})))
	v, _ := run("analytic/threshold", gasperleak.ScenarioParams{P0: 0.5}).Metric("threshold_both_branches")
	fmt.Printf("threshold:       beta0 >= %.4f can exceed 1/3 on both branches\n", v)
	// Output:
	// honest only:     conflicting finalization after 4662 epochs (~20.7 days)
	// double voting:   conflicting finalization after 3109 epochs (~13.8 days)
	// beta0=0.33:      conflicting finalization after 503 epochs (~2.2 days)
	// non-slashable:   conflicting finalization after 558 epochs (~2.5 days)
	// threshold:       beta0 >= 0.2421 can exceed 1/3 on both branches
}

// The paper's Table 2 headline row: with beta0 = 0.2 of stake double-voting
// on both branches of a partition, conflicting finalization takes ~3107
// epochs instead of the honest-only ~4685.
func ExampleLeakSim() {
	sim := gasperleak.LeakSim{N: 10000, P0: 0.5, Beta0: 0.2, Mode: gasperleak.ByzDoubleVote}
	res, err := sim.Run(9000, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("conflicting finalization at epoch", res.ConflictEpoch)
	// Output: conflicting finalization at epoch 3109
}

// Equation 9 in closed form: the same row analytically.
func ExampleAnalyticParams_conflictEpochSlashing() {
	p := gasperleak.PaperParams()
	fmt.Printf("%.0f\n", p.ConflictEpochSlashing(0.5, 0.2))
	// Output: 3107
}

// The minimum initial Byzantine proportion that can exceed the 1/3 Safety
// threshold on both branches of a 50/50 fork (Figure 7's corner).
func ExampleAnalyticParams_thresholdBeta0() {
	p := gasperleak.PaperParams()
	fmt.Printf("%.4f\n", p.ThresholdBeta0(0.5))
	// Output: 0.2421
}

// Equation 14: the honest-split window inside which the probabilistic
// bouncing attack can continue, at beta0 = 1/3.
func ExampleBounceWindow() {
	lo, hi := gasperleak.BounceWindow(1.0 / 3.0)
	fmt.Printf("p0 in (%.2f, %.2f)\n", lo, hi)
	// Output: p0 in (0.50, 1.00)
}

// Equation 24 at beta0 = 1/3 evaluates to exactly one half at every epoch
// of the attack.
func ExampleBounceModel_ExceedProbability() {
	m := gasperleak.BounceModel{P0: 0.5}
	fmt.Printf("%.2f\n", m.ExceedProbability(4000, 1.0/3.0, gasperleak.PaperParams()))
	// Output: 0.50
}

// A healthy full-protocol run: 16 honest validators finalize epoch after
// epoch.
func ExampleNewSimulation() {
	s, err := gasperleak.NewSimulation(gasperleak.SimConfig{
		Validators: 16,
		Spec:       gasperleak.DefaultSpec(),
		Delay:      1,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := s.RunEpochs(8); err != nil {
		log.Fatal(err)
	}
	fmt.Println("finalized epoch:", s.View(0).Finalized().Epoch)
	fmt.Println("safety violation:", s.CheckFinalitySafety() != nil)
	// Output:
	// finalized epoch: 5
	// safety violation: false
}
