package behavior

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/attestation"
	"repro/internal/sim"
	"repro/internal/slashing"
	"repro/internal/types"
	"repro/internal/validator"
)

// byzConfig builds the standard two-branch attack configuration: honest
// validators 0..23 split 12/12 across partitions, Byzantine validators
// 24..31 (beta0 = 0.25), compressed spec (quotient 2^10).
func byzConfig(seed int64, adversary sim.Adversary) sim.Config {
	return sim.Config{
		Validators: 32,
		Spec:       types.CompressedSpec(1 << 16),
		GST:        1 << 30,
		Delay:      1,
		Seed:       seed,
		Byzantine:  []types.ValidatorIndex{24, 25, 26, 27, 28, 29, 30, 31},
		PartitionOf: func(v types.ValidatorIndex) int {
			if v < 12 {
				return 0
			}
			return 1
		},
		Adversary: adversary,
	}
}

// evidence counts the validators the view of v holds slashing evidence
// against.
func evidence(s *sim.Simulation, v types.ValidatorIndex) int {
	n := 0
	for w := 0; w < s.Cfg.Validators; w++ {
		if s.View(v).Detector.Slashed(types.ValidatorIndex(w)) {
			n++
		}
	}
	return n
}

// inSet reports whether validator w is in the validator set of v's view.
func inSet(s *sim.Simulation, v, w types.ValidatorIndex) bool {
	return s.View(v).Registry.Columns().Status[w] == validator.Active
}

// byzProportion is the Byzantine stake proportion in the view of v, the
// paper's Safety threshold metric (2).
func byzProportion(s *sim.Simulation, v types.ValidatorIndex) float64 {
	reg := s.View(v).Registry
	return float64(reg.StakeOf(s.Cfg.Byzantine)) / float64(reg.TotalStake())
}

// runUntilConflict steps epoch by epoch until conflicting finalization or
// the limit, returning the epoch of the violation (0 = none).
func runUntilConflict(t *testing.T, s *sim.Simulation, limit int) types.Epoch {
	t.Helper()
	for epoch := 1; epoch <= limit; epoch++ {
		if err := s.RunEpochs(1); err != nil {
			t.Fatal(err)
		}
		if v := s.CheckFinalitySafety(); v != nil {
			return types.Epoch(epoch)
		}
	}
	return 0
}

// honestBaselineConflictEpoch measures Scenario 5.1 (no Byzantine) with the
// same honest population for comparison.
func honestBaselineConflictEpoch(t *testing.T) types.Epoch {
	t.Helper()
	cfg := sim.Config{
		Validators: 24,
		Spec:       types.CompressedSpec(1 << 16),
		GST:        1 << 30,
		Delay:      1,
		Seed:       7,
		PartitionOf: func(v types.ValidatorIndex) int {
			if v < 12 {
				return 0
			}
			return 1
		},
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := runUntilConflict(t, s, 45)
	if e == 0 {
		t.Fatal("honest baseline never produced conflicting finalization")
	}
	return e
}

// TestScenario521DoubleVoterAcceleratesConflict reproduces Scenario 5.2.1:
// Byzantine validators double-voting on both branches make conflicting
// finalization happen substantially earlier than the honest-only baseline,
// and they remain undetected while the partition lasts.
func TestScenario521DoubleVoterAcceleratesConflict(t *testing.T) {
	adv := &DoubleVoter{Reps: [2]types.ValidatorIndex{0, 12}}
	s, err := sim.New(byzConfig(7, adv))
	if err != nil {
		t.Fatal(err)
	}
	conflictEpoch := runUntilConflict(t, s, 45)
	if conflictEpoch == 0 {
		t.Fatal("double-voting adversary never produced conflicting finalization")
	}
	baseline := honestBaselineConflictEpoch(t)
	if conflictEpoch >= baseline {
		t.Errorf("double voting must accelerate the safety loss: byz %d vs honest %d",
			conflictEpoch, baseline)
	}
	t.Logf("conflicting finalization: with double-voting %d, honest baseline %d", conflictEpoch, baseline)

	// Before GST no honest view can prove the equivocation: each
	// partition saw only one face.
	for _, h := range s.HonestIndices() {
		if evidence(s, h) != 0 {
			t.Fatalf("view of validator %d detected slashing before GST", h)
		}
		for _, b := range s.Cfg.Byzantine {
			if !inSet(s, h, b) {
				t.Fatalf("Byzantine %d slashed before GST in validator %d's view", b, h)
			}
		}
	}
}

// TestScenario521UnderMessageLoss: the attack tolerates a lossy network —
// retransmissions preserve the vote flow and the conflicting finalization
// still occurs.
func TestScenario521UnderMessageLoss(t *testing.T) {
	adv := &DoubleVoter{Reps: [2]types.ValidatorIndex{0, 12}}
	cfg := byzConfig(7, adv)
	cfg.DropRate = 0.1
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conflictEpoch := runUntilConflict(t, s, 45)
	if conflictEpoch == 0 {
		t.Fatal("10% message loss must not defeat the attack")
	}
	t.Logf("conflicting finalization under 10%% loss at epoch %d", conflictEpoch)
}

// TestScenario521WithShuffledDuties: per-epoch committee shuffling changes
// nothing about the attack's viability.
func TestScenario521WithShuffledDuties(t *testing.T) {
	adv := &DoubleVoter{Reps: [2]types.ValidatorIndex{0, 12}}
	cfg := byzConfig(7, adv)
	cfg.ShuffledDuties = true
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conflictEpoch := runUntilConflict(t, s, 45)
	if conflictEpoch == 0 {
		t.Fatal("shuffled duties must not defeat the attack")
	}
}

// TestScenario521SlashingAfterGST: once the partition heals, the withheld
// faces cross over, honest views assemble double-vote evidence, and the
// Byzantine validators are slashed — but the conflicting finalization has
// already happened ("the harm is already done").
func TestScenario521SlashingAfterGST(t *testing.T) {
	adv := &DoubleVoter{Reps: [2]types.ValidatorIndex{0, 12}}
	cfg := byzConfig(11, adv)
	cfg.GST = 20 * 32 // heal at epoch 20
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(23); err != nil {
		t.Fatal(err)
	}
	for _, h := range s.HonestIndices() {
		if evidence(s, h) == 0 {
			t.Errorf("view of validator %d has no slashing evidence after GST", h)
		}
		for _, b := range s.Cfg.Byzantine {
			if inSet(s, h, b) {
				t.Errorf("Byzantine %d still in set after GST in validator %d's view", b, h)
			}
		}
	}
}

// TestScenario523SemiActiveCrossesOneThird reproduces Scenario 5.2.3:
// semi-active Byzantine validators (beta0 = 0.25 > the 0.2421 threshold)
// delay finalization and wait for the honest inactive validators to be
// ejected, at which point their stake proportion jumps above one-third on
// BOTH branch views — without ever committing a slashable offense. The
// test tracks the proportion per epoch and stops at the peak (the paper's
// beta_max moment, Equation 13); past it the decayed Byzantine stake lets
// honest actives reach a 2/3 quorum on their own.
func TestScenario523SemiActiveCrossesOneThird(t *testing.T) {
	adv := &SemiActive{Reps: [2]types.ValidatorIndex{0, 12}} // no AutoFinalize: never finalize
	s, err := sim.New(byzConfig(13, adv))
	if err != nil {
		t.Fatal(err)
	}
	maxProp := [2]float64{}
	crossedEpoch := types.Epoch(0)
	for epoch := 1; epoch <= 32; epoch++ {
		if err := s.RunEpochs(1); err != nil {
			t.Fatal(err)
		}
		a := byzProportion(s, 0)
		b := byzProportion(s, 12)
		if a > maxProp[0] {
			maxProp[0] = a
		}
		if b > maxProp[1] {
			maxProp[1] = b
		}
		if a > 1.0/3.0 && b > 1.0/3.0 {
			crossedEpoch = types.Epoch(epoch)
			break
		}
	}
	if crossedEpoch == 0 {
		t.Fatalf("Byzantine proportion never crossed 1/3 on both branches: max = %v", maxProp)
	}
	t.Logf("Byzantine proportion crossed 1/3 on both branches at epoch %d (%.4f / %.4f)",
		crossedEpoch, byzProportion(s, 0), byzProportion(s, 12))

	// Up to the crossing: no conflicting finalization, no slashable
	// offense ever observable.
	if v := s.CheckFinalitySafety(); v != nil {
		t.Fatalf("scenario 5.2.3 crossed 1/3 without finalizing, but found: %v", v)
	}
	for _, h := range s.HonestIndices() {
		if evidence(s, h) != 0 {
			t.Fatalf("semi-active behavior produced slashing evidence in validator %d's view", h)
		}
	}
	// The crossing coincides with the ejection of the opposite side's
	// honest validators on each view.
	for _, pair := range [][2]types.ValidatorIndex{{0, 12}, {12, 0}} {
		observer := pair[0]
		ejected := 0
		for v := types.ValidatorIndex(0); v < 24; v++ {
			if !inSet(s, observer, v) {
				ejected++
			}
		}
		if ejected < 12 {
			t.Errorf("view of validator %d: only %d honest validators ejected at the crossing, want >= 12",
				observer, ejected)
		}
	}

	// Sub-threshold control: beta0 = 0.125 (4 of 32, well under 0.2421)
	// must NOT cross 1/3 on either branch.
	advLow := &SemiActive{Reps: [2]types.ValidatorIndex{0, 12}}
	cfgLow := byzConfig(29, advLow)
	cfgLow.Byzantine = []types.ValidatorIndex{28, 29, 30, 31}
	low, err := sim.New(cfgLow)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 1; epoch <= 32; epoch++ {
		if err := low.RunEpochs(1); err != nil {
			t.Fatal(err)
		}
		if p := byzProportion(low, 0); p > 1.0/3.0 {
			t.Fatalf("beta0=0.125 crossed 1/3 at epoch %d (%.4f); threshold behavior broken", epoch, p)
		}
	}
}

// TestScenario522SemiActiveFinalizesConflictingBranches reproduces Scenario
// 5.2.2: same non-slashable gait, but once both branch quorums are within
// reach the Byzantine validators camp on each branch in turn (AutoFinalize),
// finalizing both — a Safety violation with zero slashing risk.
func TestScenario522SemiActiveFinalizesConflictingBranches(t *testing.T) {
	adv := &SemiActive{Reps: [2]types.ValidatorIndex{0, 12}, AutoFinalize: true}
	s, err := sim.New(byzConfig(17, adv))
	if err != nil {
		t.Fatal(err)
	}
	conflictEpoch := runUntilConflict(t, s, 32)
	if conflictEpoch == 0 {
		t.Fatal("scenario 5.2.2 never finalized conflicting branches")
	}
	for _, h := range s.HonestIndices() {
		if evidence(s, h) != 0 {
			t.Fatalf("scenario 5.2.2 must stay non-slashable; validator %d's view has evidence", h)
		}
	}
	t.Logf("non-slashable conflicting finalization at epoch %d", conflictEpoch)
}

// TestScenario53BouncerStallsFinality reproduces the mechanism of Scenario
// 5.3: after a setup fork, the bouncing adversary keeps justification
// alternating between the branches — finality never advances, the leak
// runs, honest validators bounce per-epoch, and no slashable offense
// occurs. When the adversary stops, finality recovers (the attack is a
// liveness attack whose leak side-effects threaten the 1/3 threshold).
func TestScenario53BouncerStallsFinality(t *testing.T) {
	adv := NewBouncer(0.6, 99, [2]types.ValidatorIndex{0, 12})
	cfg := byzConfig(19, adv)
	cfg.GST = 3 * 32 // short setup partition: epochs 0-2
	adv.Stop = 16
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Run the attack phase.
	if err := s.RunEpochs(16); err != nil {
		t.Fatal(err)
	}
	if adv.Releases < 10 {
		t.Fatalf("adversary performed only %d releases; attack never engaged", adv.Releases)
	}
	// Finality must not have advanced past the setup era during the
	// attack.
	for _, h := range s.HonestIndices() {
		if got := s.View(h).Finalized().Epoch; got > 3 {
			t.Errorf("validator %d's view finalized epoch %d during the bouncing attack", h, got)
		}
	}
	// The leak is running: honest stake is draining on honest views.
	drained := 0
	for _, h := range s.HonestIndices() {
		if s.View(h).Registry.TotalStake() < types.Gwei(32)*types.MaxEffectiveBalanceGwei {
			drained++
		}
	}
	if drained == 0 {
		t.Error("no view shows stake drain; the leak never engaged")
	}
	// Placement randomness: both bounce and stay outcomes occurred.
	honest := len(s.HonestIndices())
	total := adv.Releases * honest
	if adv.Bounces == 0 || adv.Bounces == total {
		t.Errorf("placement coin degenerate: %d bounces of %d", adv.Bounces, total)
	}
	// Non-slashable throughout.
	for _, h := range s.HonestIndices() {
		if evidence(s, h) != 0 {
			t.Fatalf("bouncing produced slashing evidence in validator %d's view", h)
		}
	}
	// No conflicting finalization either (synchronous period!).
	if v := s.CheckFinalitySafety(); v != nil {
		t.Fatalf("bouncing must not fork finality: %v", v)
	}

	// Liveness recovery: stop the adversary and run on.
	if err := s.RunEpochs(8); err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for _, h := range s.HonestIndices() {
		if s.View(h).Finalized().Epoch >= 16 {
			recovered++
		}
	}
	if recovered < len(s.HonestIndices())/2 {
		t.Errorf("only %d honest validators recovered finality after the attack stopped", recovered)
	}
	if v := s.CheckFinalitySafety(); v != nil {
		t.Fatalf("post-attack safety violation: %v", v)
	}
}

// TestBouncerUnderMessageLoss pins the cross-view proposer rule: a bounced
// proposer acts on a foreign duty view, whose broadcast delivery may be
// delayed by a link outage — the kernel must not apply such a block to the
// foreign view early. The attack still engages under loss and, once the
// adversary stops, finality eventually recovers; with correlated link
// outages the post-attack duty-view split persists until the leak drains
// the minority crowd, so recovery takes several extra epochs and reaches
// one branch view first.
func TestBouncerUnderMessageLoss(t *testing.T) {
	adv := NewBouncer(0.6, 99, [2]types.ValidatorIndex{0, 12})
	cfg := byzConfig(19, adv)
	cfg.GST = 3 * 32
	cfg.DropRate = 0.3
	adv.Stop = 14
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(28); err != nil {
		t.Fatal(err)
	}
	if adv.Releases < 8 {
		t.Fatalf("only %d releases under loss; attack never engaged", adv.Releases)
	}
	if v := s.CheckFinalitySafety(); v != nil {
		t.Fatalf("bouncing under loss must not fork finality: %v", v)
	}
	recovered := false
	for _, h := range s.HonestIndices() {
		if s.View(h).Finalized().Epoch >= 14 {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Error("no honest view recovered finality after the adversary stopped")
	}
}

// TestSemiActiveAutoFinalizeFinalizesPostFork: AutoFinalize starts the
// finalization gait as soon as both branches justify (the Table 3 timing),
// and the conflict it produces comes from checkpoints the gait finalized,
// not from a stale pre-gait finalization (which cannot satisfy the camping
// phases).
func TestSemiActiveAutoFinalizeFinalizesPostFork(t *testing.T) {
	adv := &SemiActive{Reps: [2]types.ValidatorIndex{0, 12}, AutoFinalize: true}
	s, err := sim.New(byzConfig(17, adv))
	if err != nil {
		t.Fatal(err)
	}
	conflict := runUntilConflict(t, s, 40)
	if conflict == 0 {
		t.Fatal("AutoFinalize never finalized conflicting branches")
	}
	gait := adv.GaitFrom()
	if gait == 0 {
		t.Fatal("AutoFinalize never started its gait")
	}
	if conflict < gait {
		t.Fatalf("conflicting finalization at epoch %d precedes the gait's start at %d", conflict, gait)
	}
	for _, rep := range adv.Reps {
		if fin := s.View(rep).Finalized().Epoch; fin+1 < gait {
			t.Fatalf("validator %d's view finalized epoch %d, before the gait's start at %d", rep, fin, gait)
		}
	}
}

// TestSemiActiveVotesSurroundAcrossBranches: the semi-active gait casts one
// vote an epoch, so never a double vote; but a vote on the branch whose
// justified checkpoint is older surrounds the validator's earlier votes on
// the other branch. Before GST the two honest views' pools hold every
// Byzantine vote between them, one branch's each, so only their union shows
// the surround pairs.
func TestSemiActiveVotesSurroundAcrossBranches(t *testing.T) {
	adv := &SemiActive{Reps: [2]types.ValidatorIndex{0, 12}, AutoFinalize: true}
	cfg := byzConfig(17, adv)
	votes := map[types.ValidatorIndex]map[attestation.Data]bool{}
	for _, b := range cfg.Byzantine {
		votes[b] = map[attestation.Data]bool{}
	}
	cfg.OnEpoch = func(s *sim.Simulation, _ types.Epoch) {
		for _, rep := range adv.Reps {
			pool := s.View(rep).Pool
			for _, ev := range pool.Retained() {
				for v, data := range pool.VotesForEpoch(ev.Epoch()) {
					for _, d := range data {
						if set, ok := votes[types.ValidatorIndex(v)]; ok {
							set[d] = true
						}
					}
				}
			}
		}
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if runUntilConflict(t, s, 32) == 0 {
		t.Fatal("scenario 5.2.2 never finalized conflicting branches")
	}
	kinds := map[slashing.Kind]int{}
	for _, set := range votes {
		data := slices.Collect(maps.Keys(set))
		for i := range data {
			for j := i + 1; j < len(data); j++ {
				kinds[slashing.Conflict(data[i], data[j])]++
			}
		}
	}
	if kinds[slashing.DoubleVote] != 0 || kinds[slashing.SurroundVote] == 0 {
		t.Fatalf("the Byzantine votes both views hold form %d double-vote and %d surround pairs; want none and some",
			kinds[slashing.DoubleVote], kinds[slashing.SurroundVote])
	}
	t.Logf("%d surround pairs", kinds[slashing.SurroundVote])
}
