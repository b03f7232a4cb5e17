package gasperleak_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/gasperleak"
)

// TestPublicAPIQuickstart exercises the facade the way the README does.
func TestPublicAPIQuickstart(t *testing.T) {
	sim := gasperleak.LeakSim{N: 10000, P0: 0.5, Beta0: 0.2, Mode: gasperleak.ByzDoubleVote}
	res, err := sim.Run(9000, 0)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := gasperleak.PaperParams().ConflictingFinalization(gasperleak.WithSlashing, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(res.ConflictEpoch); math.Abs(got-bc.ConflictEpoch) > 2 {
		t.Errorf("quickstart conflict epoch = %v, want within 2 of Equation 9's %v", got, bc.ConflictEpoch)
	}
}

func TestPublicAnalytic(t *testing.T) {
	p := gasperleak.PaperParams()
	if got := p.ThresholdBeta0(0.5); p.ExceedsOnBothBranches(0.5, got-0.01) || !p.ExceedsOnBothBranches(0.5, got+0.01) {
		t.Errorf("ThresholdBeta0 = %v is not the both-branches boundary", got)
	}
	if gasperleak.StakeActive(100) != 32 {
		t.Error("StakeActive must be 32")
	}
	if !(gasperleak.StakeInactive(1000) < gasperleak.StakeSemiActive(1000)) {
		t.Error("stake law ordering broken")
	}
	lo, hi := gasperleak.BounceWindow(1.0 / 3.0)
	if lo != 0.5 || hi != 1.0 {
		t.Errorf("BounceWindow(1/3) = (%v, %v)", lo, hi)
	}
	if p := gasperleak.BounceContinuationProbability(1.0/3.0, 8, 7000); p > 1e-100 {
		t.Errorf("continuation probability = %v, want ~1e-121", p)
	}
	bc, err := p.ConflictingFinalization(gasperleak.WithSlashing, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Ceil(p.ConflictEpochSlashing(0.5, 0.2)) + 1; bc.ConflictEpoch != want {
		t.Errorf("conflict epoch = %v, want %v", bc.ConflictEpoch, want)
	}
}

func TestPublicSpecs(t *testing.T) {
	d := gasperleak.DefaultSpec()
	if d.InactivityPenaltyQuotient != 1<<26 {
		t.Error("default quotient must be 2^26")
	}
	c := gasperleak.CompressedSpec(1 << 16)
	if c.InactivityPenaltyQuotient != 1<<10 {
		t.Error("compressed quotient must be 2^10")
	}
}

func TestPublicProtocolSim(t *testing.T) {
	s, err := gasperleak.NewSimulation(gasperleak.SimConfig{
		Validators: 8,
		Spec:       gasperleak.DefaultSpec(),
		Delay:      1,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(6); err != nil {
		t.Fatal(err)
	}
	if s.View(0).Finalized().Epoch < 3 {
		t.Errorf("finalized epoch = %d, want >= 3", s.View(0).Finalized().Epoch)
	}
	if v := s.CheckFinalitySafety(); v != nil {
		t.Errorf("safety violation on healthy chain: %v", v)
	}
}

func TestPublicFigures(t *testing.T) {
	var b strings.Builder
	if err := gasperleak.Figure2().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "epoch,active,semi_active,inactive") {
		t.Error("Figure 2 CSV header missing")
	}
	if gasperleak.FormatEpoch(4685) == "" {
		t.Error("FormatEpoch must render")
	}
}

// TestPublicScenarioWrappers runs every paper scenario once through the
// public Client: the Table 1 cells, then the footnote-12 corner (5.2.3c).
func TestPublicScenarioWrappers(t *testing.T) {
	c, err := gasperleak.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	cells := gasperleak.Table1Cells(1)
	if len(cells) != 5 {
		t.Fatalf("Table1Cells: %d cells, want 5", len(cells))
	}
	cells = append(cells, gasperleak.SweepCell{Scenario: "5.2.3c", Params: gasperleak.ScenarioParams{P0: 0.5, Beta0: 0.25, Horizon: 100}})
	for _, cell := range cells {
		res, err := c.Run(context.Background(), cell.Scenario, cell.Params)
		if err != nil {
			t.Errorf("%s: %v", cell.Scenario, err)
			continue
		}
		if res.Outcome == "" {
			t.Errorf("%s: empty outcome", cell.Scenario)
		}
		if cell.Scenario == "5.2.3" || cell.Scenario == "5.2.3c" {
			if v, _ := res.Metric("crossed_one_third"); v != 1 {
				t.Errorf("%s lost the crossing", cell.Scenario)
			}
		}
	}
}

// TestPublicFigureWrappers exercises every figure re-export once.
func TestPublicFigureWrappers(t *testing.T) {
	c, err := gasperleak.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if f := gasperleak.Figure3(); len(f.Series) != 5 {
		t.Error("Figure3 wrapper broken")
	}
	if f, err := c.Figure3Sim(ctx, 2000); err != nil || len(f.Series) != 5 {
		t.Errorf("Figure3Sim wrapper: %v", err)
	}
	if f, err := gasperleak.Figure6(); err != nil || len(f.Series) != 2 {
		t.Errorf("Figure6 wrapper: %v", err)
	}
	if f := gasperleak.Figure7(); len(f.Series) != 3 {
		t.Error("Figure7 wrapper broken")
	}
	if f, err := c.Figure7Sim(ctx, 3); err != nil || len(f.Series) != 2 {
		t.Errorf("Figure7Sim wrapper: %v", err)
	}
	if f := gasperleak.Figure9(4024); len(f.Series) != 3 {
		t.Error("Figure9 wrapper broken")
	}
	if f := gasperleak.Figure10(); len(f.Series) != 6 {
		t.Error("Figure10 wrapper broken")
	}
	if f, err := c.Figure10MonteCarlo(ctx, 0.33, 50, 1, 1); err != nil || len(f.Series) != 2 {
		t.Errorf("Figure10MonteCarlo wrapper: %v", err)
	}
	for n := 1; n <= 3; n++ {
		tbl, err := c.RenderTable(ctx, n, 1)
		if err != nil || len(tbl.Rows) == 0 {
			t.Errorf("table %d: %v", n, err)
		}
	}
}

// TestPublicAnalyticWrappers covers the remaining analytic re-exports.
func TestPublicAnalyticWrappers(t *testing.T) {
	p := gasperleak.ContinuousParams()
	if p.EjectionEpoch >= gasperleak.PaperParams().EjectionEpoch {
		t.Error("continuous ejection must precede the paper anchor")
	}
	for _, behavior := range []gasperleak.Behavior{
		gasperleak.HonestOnly, gasperleak.WithSlashing, gasperleak.WithoutSlashing,
	} {
		if behavior.String() == "" {
			t.Error("behavior must render")
		}
	}
	m := gasperleak.BounceModel{P0: 0.5}
	if got := m.ExceedProbability(2000, 1.0/3.0, gasperleak.PaperParams()); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("BounceModel wrapper = %v, want 0.5", got)
	}
}

func TestPublicBouncer(t *testing.T) {
	adv := gasperleak.NewBouncer(0.7, 1, [2]gasperleak.ValidatorIndex{0, 4})
	if adv == nil {
		t.Fatal("NewBouncer returned nil")
	}
	mc := gasperleak.BounceMC{NHonest: 100, Beta0: 1.0 / 3.0, P0: 0.5, Seed: 1}
	probs, err := mc.ExceedProbability([]gasperleak.Epoch{2000}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(probs[0]-0.5) > 0.15 {
		t.Errorf("MC probability = %v, want ~0.5", probs[0])
	}
}
