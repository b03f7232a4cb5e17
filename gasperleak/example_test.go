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

// The probabilistic bouncing attack under the inactivity leak (Section
// 5.3), at three levels: the Equation 14 window and the continuation
// probability from the analytic registry entries; Equation 24 against the
// exact integer Monte-Carlo of P[beta > 1/3], as a sweep of bounce-mc
// cells, one per seed; and the bouncing adversary on the full protocol
// simulator (compressed spec), where finality stalls while the attack runs
// and recovers once it stops.
func Example_bouncingAttack() {
	ctx := context.Background()
	c, err := gasperleak.NewClient()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("-- Equation 14: the attack window --")
	for _, beta0 := range []float64{0.1, 0.2, 0.3, 1.0 / 3.0} {
		res, err := c.Run(ctx, "analytic/bounce", gasperleak.ScenarioParams{P0: 0.5, Beta0: beta0, Horizon: 4000})
		if err != nil {
			log.Fatal(err)
		}
		lo, _ := res.Metric("window_lo")
		hi, _ := res.Metric("window_hi")
		fmt.Printf("beta0=%.4f: honest split p0 must lie in (%.4f, %.4f)\n", beta0, lo, hi)
	}
	fmt.Printf("continuation to epoch 7000 (j=8, beta0=1/3): %.2e (the paper's 1e-121)\n",
		gasperleak.BounceContinuationProbability(1.0/3.0, 8, 7000))

	fmt.Println("-- P[beta > 1/3]: Equation 24 vs integer Monte-Carlo --")
	model := gasperleak.BounceModel{P0: 0.5}
	const runs, sample, horizon = 4, 2000, 6000
	for _, beta0 := range []float64{1.0 / 3.0, 0.33} {
		// Each run simulates once to the horizon, sampling the crossing
		// fraction every `sample` epochs.
		results := c.SweepGrid(ctx, gasperleak.BounceMCGrid(0.5, beta0, 400, runs, 7, sample, horizon))
		if err := gasperleak.SweepFirstError(results); err != nil {
			log.Fatal(err)
		}
		mc := map[float64]float64{}
		for _, r := range results {
			for _, pt := range r.Curve {
				mc[pt.X] += pt.Y / runs
			}
		}
		for e := float64(sample); e <= horizon; e += sample {
			fmt.Printf("beta0=%.4f t=%4.0f  Eq24=%.3f  MC=%.3f\n",
				beta0, e, model.ExceedProbability(e, beta0, gasperleak.PaperParams()), mc[e])
		}
	}

	fmt.Println("-- protocol-level bouncing (compressed spec) --")
	adv := gasperleak.NewBouncer(0.7, 99, [2]gasperleak.ValidatorIndex{0, 12})
	adv.Stop = 14
	s, err := gasperleak.NewSimulation(gasperleak.SimConfig{
		Validators:  32,
		Spec:        gasperleak.CompressedSpec(1 << 14),
		GST:         3 * 32,
		Delay:       1,
		Seed:        19,
		Byzantine:   []gasperleak.ValidatorIndex{24, 25, 26, 27, 28, 29, 30, 31},
		PartitionOf: func(v gasperleak.ValidatorIndex) int { return min(int(v)/12, 1) },
		Adversary:   adv,
	})
	if err != nil {
		log.Fatal(err)
	}
	for epoch := 1; epoch <= 20; epoch++ {
		if err := s.RunEpochs(1); err != nil {
			log.Fatal(err)
		}
		phase := "attack"
		if gasperleak.Epoch(epoch) >= adv.Stop {
			phase = "stopped"
		}
		n := s.View(1)
		fmt.Printf("epoch %2d [%s]: justified=%d finalized=%d honest stake=%.0f ETH\n",
			epoch, phase, n.FFG.LatestJustified().Epoch, n.Finalized().Epoch, n.Registry.TotalStake().ETH())
	}
	fmt.Println("safety violation:", s.CheckFinalitySafety() != nil)
	// Output:
	// -- Equation 14: the attack window --
	// beta0=0.1000: honest split p0 must lie in (0.6296, 0.7407)
	// beta0=0.2000: honest split p0 must lie in (0.5833, 0.8333)
	// beta0=0.3000: honest split p0 must lie in (0.5238, 0.9524)
	// beta0=0.3333: honest split p0 must lie in (0.5000, 1.0000)
	// continuation to epoch 7000 (j=8, beta0=1/3): 1.01e-121 (the paper's 1e-121)
	// -- P[beta > 1/3]: Equation 24 vs integer Monte-Carlo --
	// beta0=0.3333 t=2000  Eq24=0.500  MC=0.494
	// beta0=0.3333 t=4000  Eq24=0.500  MC=0.510
	// beta0=0.3333 t=6000  Eq24=0.500  MC=0.502
	// beta0=0.3300 t=2000  Eq24=0.000  MC=0.000
	// beta0=0.3300 t=4000  Eq24=0.025  MC=0.001
	// beta0=0.3300 t=6000  Eq24=0.144  MC=0.060
	// -- protocol-level bouncing (compressed spec) --
	// epoch  1 [attack]: justified=0 finalized=0 honest stake=1024 ETH
	// epoch  2 [attack]: justified=0 finalized=0 honest stake=1024 ETH
	// epoch  3 [attack]: justified=0 finalized=0 honest stake=1024 ETH
	// epoch  4 [attack]: justified=0 finalized=0 honest stake=1024 ETH
	// epoch  5 [attack]: justified=3 finalized=0 honest stake=1024 ETH
	// epoch  6 [attack]: justified=3 finalized=0 honest stake=1024 ETH
	// epoch  7 [attack]: justified=4 finalized=0 honest stake=1024 ETH
	// epoch  8 [attack]: justified=6 finalized=0 honest stake=1022 ETH
	// epoch  9 [attack]: justified=6 finalized=0 honest stake=1021 ETH
	// epoch 10 [attack]: justified=7 finalized=0 honest stake=1017 ETH
	// epoch 11 [attack]: justified=8 finalized=0 honest stake=1016 ETH
	// epoch 12 [attack]: justified=10 finalized=0 honest stake=1012 ETH
	// epoch 13 [attack]: justified=10 finalized=0 honest stake=1008 ETH
	// epoch 14 [stopped]: justified=11 finalized=0 honest stake=1000 ETH
	// epoch 15 [stopped]: justified=12 finalized=0 honest stake=994 ETH
	// epoch 16 [stopped]: justified=14 finalized=0 honest stake=987 ETH
	// epoch 17 [stopped]: justified=15 finalized=14 honest stake=987 ETH
	// epoch 18 [stopped]: justified=16 finalized=15 honest stake=987 ETH
	// epoch 19 [stopped]: justified=17 finalized=16 honest stake=987 ETH
	// epoch 20 [stopped]: justified=18 finalized=17 honest stake=987 ETH
	// safety violation: false
}

// How much faster Safety breaks as the initial Byzantine proportion beta0
// grows, under the paper's two Byzantine behaviors (double voting, 5.2.1,
// and the non-slashable semi-active attack, 5.2.2), as one streamed sweep
// whose cells arrive in completion order; then the 1/3-threshold scenario
// (5.2.3) around its analytic minimum beta0.
func Example_byzantineAcceleration() {
	ctx := context.Background()
	c, err := gasperleak.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	// Cell 0 is the honest-only baseline (5.1); then a double-voting and a
	// semi-active cell per beta0.
	betas := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.33}
	cells := []gasperleak.SweepCell{{Scenario: "5.1", Params: gasperleak.ScenarioParams{P0: 0.5}}}
	for _, beta0 := range betas {
		cells = append(cells,
			gasperleak.SweepCell{Scenario: "5.2.1", Params: gasperleak.ScenarioParams{P0: 0.5, Beta0: beta0}},
			gasperleak.SweepCell{Scenario: "5.2.2", Params: gasperleak.ScenarioParams{P0: 0.5, Beta0: beta0}})
	}
	epochs := make([]float64, len(cells))
	for u := range c.SweepStream(ctx, cells) {
		if u.Result.Err != "" {
			log.Fatalf("cell %d: %s", u.Index, u.Result.Err)
		}
		epochs[u.Index], _ = u.Result.Metric("sim_epoch")
	}
	fmt.Println("beta0   double-vote   semi-active   speedup-vs-honest")
	fmt.Printf("0.00    %11.0f   %11.0f   %17.1fx\n", epochs[0], epochs[0], 1.0)
	for i, beta0 := range betas {
		dv, sa := epochs[2*i+1], epochs[2*i+2]
		fmt.Printf("%.2f    %11.0f   %11.0f   %17.1fx\n", beta0, dv, sa, epochs[0]/dv)
	}

	threshold, err := c.Run(ctx, "analytic/threshold", gasperleak.ScenarioParams{P0: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	minBeta, _ := threshold.Metric("threshold_both_branches")
	fmt.Printf("analytic minimum beta0 at p0=0.5: %.4f\n", minBeta)
	for _, beta0 := range []float64{0.23, 0.2421, 0.25, 0.3} {
		res, err := c.Run(ctx, "5.2.3", gasperleak.ScenarioParams{P0: 0.5, Beta0: beta0})
		if err != nil {
			log.Fatal(err)
		}
		peak, _ := res.Metric("peak_byz_proportion")
		epoch, _ := res.Metric("sim_epoch")
		crossed, _ := res.Metric("crossed_one_third")
		fmt.Printf("beta0=%.4f  peak proportion %.4f at epoch %.0f  crossed 1/3: %v\n",
			beta0, peak, epoch, crossed == 1)
	}
	// Output:
	// beta0   double-vote   semi-active   speedup-vs-honest
	// 0.00           4662          4662                 1.0x
	// 0.05           4463          4536                 1.0x
	// 0.10           4067          4201                 1.1x
	// 0.15           3623          3803                 1.3x
	// 0.20           3109          3314                 1.5x
	// 0.25           2475          2679                 1.9x
	// 0.30           1579          1735                 3.0x
	// 0.33            503           558                 9.3x
	// analytic minimum beta0 at p0=0.5: 0.2421
	// beta0=0.2300  peak proportion 0.3191 at epoch 4661  crossed 1/3: false
	// beta0=0.2421  peak proportion 0.3339 at epoch 4661  crossed 1/3: true
	// beta0=0.2500  peak proportion 0.3434 at epoch 4661  crossed 1/3: true
	// beta0=0.3000  peak proportion 0.4021 at epoch 4661  crossed 1/3: true
}

// A metrics recorder on the full protocol simulator charts the life of an
// inactivity leak: finality stalls, every view enters the leak, stake
// drains, and the partition heals at epoch 12 before the leak completes.
// The counterfactual, a partition that never heals, comes from the
// registry's sim/partition scenario at the same size and seed.
func Example_leakObservatory() {
	const validators = 16
	rec := &gasperleak.MetricsRecorder{}
	s, err := gasperleak.NewSimulation(gasperleak.SimConfig{
		Validators:  validators,
		Spec:        gasperleak.CompressedSpec(1 << 16),
		GST:         12 * 32, // in slots: the partition heals at epoch 12
		Delay:       1,
		Seed:        5,
		PartitionOf: func(v gasperleak.ValidatorIndex) int { return int(v) * 2 / validators },
		OnEpoch:     rec.Hook,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := s.RunEpochs(20); err != nil {
		log.Fatal(err)
	}
	stall, longest := 0, 0
	for i, m := range rec.History {
		fmt.Printf("epoch %2d: finalized %d..%d, justified %d, %2d/16 views in leak, stake >= %.1f ETH\n",
			m.Epoch, m.MinFinalized, m.MaxFinalized, m.MaxJustified, m.InLeak, m.MinTotalStake.ETH())
		if i > 0 && m.MaxFinalized == rec.History[i-1].MaxFinalized {
			stall++
			longest = max(longest, stall)
		} else {
			stall = 0
		}
	}
	fmt.Printf("finality stalled for %d epochs before recovering\n", longest)
	fmt.Println("safety violation:", s.CheckFinalitySafety() != nil)

	c, err := gasperleak.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	res, err := c.Run(context.Background(), "sim/partition",
		gasperleak.ScenarioParams{P0: 0.5, N: validators, Horizon: 40, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	v, _ := res.Metric("violation_epoch")
	fmt.Printf("counterfactual (never heals): conflicting finalization at epoch %.0f\n", v)
	// Output:
	// epoch  1: finalized 0..0, justified 0,  0/16 views in leak, stake >= 512.0 ETH
	// epoch  2: finalized 0..0, justified 0,  0/16 views in leak, stake >= 512.0 ETH
	// epoch  3: finalized 0..0, justified 0,  0/16 views in leak, stake >= 512.0 ETH
	// epoch  4: finalized 0..0, justified 0,  0/16 views in leak, stake >= 512.0 ETH
	// epoch  5: finalized 0..0, justified 0, 16/16 views in leak, stake >= 512.0 ETH
	// epoch  6: finalized 0..0, justified 0, 16/16 views in leak, stake >= 510.9 ETH
	// epoch  7: finalized 0..0, justified 0, 16/16 views in leak, stake >= 508.6 ETH
	// epoch  8: finalized 0..0, justified 0, 16/16 views in leak, stake >= 505.3 ETH
	// epoch  9: finalized 0..0, justified 0, 16/16 views in leak, stake >= 500.9 ETH
	// epoch 10: finalized 0..0, justified 0, 16/16 views in leak, stake >= 495.5 ETH
	// epoch 11: finalized 0..0, justified 0, 16/16 views in leak, stake >= 489.1 ETH
	// epoch 12: finalized 0..0, justified 0, 16/16 views in leak, stake >= 481.9 ETH
	// epoch 13: finalized 0..0, justified 12, 16/16 views in leak, stake >= 474.0 ETH
	// epoch 14: finalized 12..12, justified 13,  0/16 views in leak, stake >= 474.0 ETH
	// epoch 15: finalized 13..13, justified 14,  0/16 views in leak, stake >= 474.0 ETH
	// epoch 16: finalized 14..14, justified 15,  0/16 views in leak, stake >= 474.0 ETH
	// epoch 17: finalized 15..15, justified 16,  0/16 views in leak, stake >= 474.0 ETH
	// epoch 18: finalized 16..16, justified 17,  0/16 views in leak, stake >= 474.0 ETH
	// epoch 19: finalized 17..17, justified 18,  0/16 views in leak, stake >= 474.0 ETH
	// finality stalled for 12 epochs before recovering
	// safety violation: false
	// counterfactual (never heals): conflicting finalization at epoch 26
}

// The paper's Scenario 5.1 on the full protocol simulator (block tree,
// LMD-GHOST, Casper FFG, attestations, inactivity leak): a lasting 50/50
// partition with only honest validators finalizes conflicting chains. The
// registry's sim/partition scenario names the violation epoch; the same
// configuration on the raw simulator then shows both sides epoch by epoch.
// A compressed penalty quotient lets the leak complete in ~25 epochs
// instead of ~4700, with every mechanism unchanged.
func Example_partitionFinality() {
	const validators, horizon, seed = 16, 40, 3
	c, err := gasperleak.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	res, err := c.Run(context.Background(), "sim/partition",
		gasperleak.ScenarioParams{P0: 0.5, N: validators, Horizon: horizon, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	want, _ := res.Metric("violation_epoch")
	fmt.Printf("registry sim/partition: safety violation at epoch %.0f\n", want)

	s, err := gasperleak.NewSimulation(gasperleak.SimConfig{
		Validators:  validators,
		Spec:        gasperleak.CompressedSpec(1 << 16),
		GST:         1 << 30, // the partition never heals
		Delay:       1,
		Seed:        seed,
		PartitionOf: func(v gasperleak.ValidatorIndex) int { return int(v) * 2 / validators },
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("epoch | side A: justified finalized stake | side B: justified finalized stake")
	for epoch := 1; epoch <= horizon; epoch++ {
		if err := s.RunEpochs(1); err != nil {
			log.Fatal(err)
		}
		a, b := s.View(0), s.View(validators-1)
		if epoch%4 == 0 || epoch > 20 {
			fmt.Printf("%5d | %9d %9d %6.0f ETH | %9d %9d %6.0f ETH\n", epoch,
				a.FFG.LatestJustified().Epoch, a.Finalized().Epoch, a.Registry.TotalStake().ETH(),
				b.FFG.LatestJustified().Epoch, b.Finalized().Epoch, b.Registry.TotalStake().ETH())
		}
		if v := s.CheckFinalitySafety(); v != nil {
			fmt.Printf("safety violation at epoch %d:\n  %v\n", epoch, v)
			return
		}
	}
	// Output:
	// registry sim/partition: safety violation at epoch 26
	// epoch | side A: justified finalized stake | side B: justified finalized stake
	//     4 |         0         0    512 ETH |         0         0    512 ETH
	//     8 |         0         0    509 ETH |         0         0    509 ETH
	//    12 |         0         0    491 ETH |         0         0    492 ETH
	//    16 |         0         0    460 ETH |         0         0    462 ETH
	//    20 |         0         0    422 ETH |         0         0    425 ETH
	//    21 |         0         0    412 ETH |         0         0    415 ETH
	//    22 |         0         0    402 ETH |         0         0    405 ETH
	//    23 |         0         0    392 ETH |         0         0    395 ETH
	//    24 |         0         0    253 ETH |         0         0    256 ETH
	//    25 |        23         0    253 ETH |        23         0    256 ETH
	//    26 |        24        23    253 ETH |        24        23    256 ETH
	// safety violation at epoch 26:
	//   sim: conflicting finalization: node 0 finalized checkpoint(epoch=23 root=0xf0b132fb), node 8 finalized checkpoint(epoch=23 root=0x16479db4)
}
