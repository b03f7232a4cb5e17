package sim

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/types"
)

func healthyConfig(n int) Config {
	return Config{
		Validators: n,
		Spec:       types.DefaultSpec(),
		GST:        0,
		Delay:      1,
		Seed:       1,
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Validators: 0, Spec: types.DefaultSpec()}); err == nil {
		t.Error("zero validators must be rejected")
	}
	if _, err := New(Config{Validators: 4}); err == nil {
		t.Error("zero spec must be rejected")
	}
	if _, err := New(Config{Validators: 4, Spec: types.DefaultSpec(), Delay: 0}); err == nil {
		t.Error("zero delay must be rejected (same-slot delivery races the drained inbox)")
	}
	cfg := healthyConfig(4)
	cfg.Byzantine = []types.ValidatorIndex{9}
	if _, err := New(cfg); err == nil {
		t.Error("out-of-range Byzantine index must be rejected")
	}
	cfg = healthyConfig(4)
	cfg.Byzantine = []types.ValidatorIndex{2, 2}
	_, err := New(cfg)
	if err == nil {
		t.Error("duplicate Byzantine indices must be rejected, not silently collapsed")
	}
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("duplicate Byzantine error = %v, want ErrBadConfig", err)
	}
}

func TestProposerScheduleDeterministicAndInRange(t *testing.T) {
	s, err := New(healthyConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := New(healthyConfig(16))
	seen := map[types.ValidatorIndex]bool{}
	for slot := types.Slot(0); slot < 256; slot++ {
		p := s.ProposerAt(slot)
		if int(p) >= 16 {
			t.Fatalf("proposer %d out of range", p)
		}
		if p != s2.ProposerAt(slot) {
			t.Fatal("proposer schedule must be deterministic per seed")
		}
		seen[p] = true
	}
	if len(seen) < 12 {
		t.Errorf("proposer schedule uses only %d of 16 validators over 256 slots", len(seen))
	}
}

func TestAttestationSlotWithinEpoch(t *testing.T) {
	s, _ := New(healthyConfig(100))
	for v := types.ValidatorIndex(0); v < 100; v++ {
		slot := s.AttestationSlot(v, 3)
		if slot.Epoch() != 3 {
			t.Fatalf("duty slot %d for validator %d not in epoch 3", slot, v)
		}
	}
}

func TestShuffledDuties(t *testing.T) {
	cfg := healthyConfig(64)
	cfg.ShuffledDuties = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Duties stay within the epoch and are deterministic per seed.
	s2, _ := New(cfg)
	changed := false
	for v := types.ValidatorIndex(0); v < 64; v++ {
		a := s.AttestationSlot(v, 3)
		if a.Epoch() != 3 {
			t.Fatalf("duty slot %d outside epoch 3", a)
		}
		if a != s2.AttestationSlot(v, 3) {
			t.Fatal("shuffled duties must be deterministic per seed")
		}
		if a != s.AttestationSlot(v, 4) {
			changed = true
		}
	}
	if !changed {
		t.Error("shuffling must reassign at least some duties between epochs")
	}
}

// TestShuffledDutiesChainStillFinalizes: the liveness baseline holds with
// per-epoch committee shuffling.
func TestShuffledDutiesChainStillFinalizes(t *testing.T) {
	cfg := healthyConfig(16)
	cfg.ShuffledDuties = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(8); err != nil {
		t.Fatal(err)
	}
	for _, v := range s.HonestIndices() {
		if got := s.View(v).Finalized().Epoch; got < 5 {
			t.Errorf("validator %d finalized epoch %d with shuffled duties, want >= 5", v, got)
		}
	}
}

func TestHonestIndicesExcludesByzantine(t *testing.T) {
	cfg := healthyConfig(6)
	cfg.Byzantine = []types.ValidatorIndex{1, 4}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	honest := s.HonestIndices()
	if len(honest) != 4 {
		t.Fatalf("honest = %v", honest)
	}
	for _, h := range honest {
		if slices.Contains(cfg.Byzantine, h) {
			t.Errorf("honest list contains Byzantine %d", h)
		}
	}
	// The slice is cached: repeated calls return the same backing array
	// instead of allocating per call (it runs inside every Snapshot).
	again := s.HonestIndices()
	if &again[0] != &honest[0] {
		t.Error("HonestIndices must return the construction-time slice, not a fresh copy")
	}
}

// TestCohortLayout: the default mode materializes one view per honest
// partition, and the oracle mode one per honest validator; a Byzantine
// validator holds none in either.
func TestCohortLayout(t *testing.T) {
	cfg := healthyConfig(10)
	cfg.Byzantine = []types.ValidatorIndex{8, 9}
	cfg.PartitionOf = func(v types.ValidatorIndex) int { return int(v) % 2 }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cohorts := s.Cohorts()
	if len(cohorts) != 2 {
		t.Fatalf("cohorts = %d, want 2 honest partitions", len(cohorts))
	}
	members := 0
	for _, c := range cohorts {
		members += len(c.Members)
	}
	if members != 8 || s.View(8) != nil || s.HomeView(9) != nil {
		t.Errorf("total members = %d, Byzantine views %v and %v; want 8 and none", members, s.View(8), s.HomeView(9))
	}
	// Cohort-mates share one view object.
	if s.View(0) != s.View(2) {
		t.Error("validators 0 and 2 share partition 0 but not a view")
	}
	if s.View(0) == s.View(1) {
		t.Error("validators 0 and 1 are in different partitions but share a view")
	}

	o, err := New(ReferenceMode{PerValidator: true}.Config(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(o.Cohorts()); got != 8 {
		t.Fatalf("oracle mode cohorts = %d, want one per honest validator", got)
	}
	if o.View(0) == o.View(2) {
		t.Error("oracle mode must not share views")
	}
}

// TestHealthyChainFinalizes is the baseline liveness check: with all
// validators honest and a synchronous network, the finalized chain grows
// epoch after epoch and no leak ever starts.
func TestHealthyChainFinalizes(t *testing.T) {
	s, err := New(healthyConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(8); err != nil {
		t.Fatal(err)
	}
	for _, v := range s.HonestIndices() {
		n := s.View(v)
		if got := n.Finalized().Epoch; got < 5 {
			t.Errorf("validator %d finalized epoch %d, want >= 5", v, got)
		}
		if n.FFG.InLeak(8, s.Cfg.Spec) {
			t.Errorf("validator %d believes it is in a leak on a healthy chain", v)
		}
		if n.Registry.Stake(v) != types.MaxEffectiveBalanceGwei {
			t.Errorf("validator %d lost stake on a healthy chain", v)
		}
	}
	if v := s.CheckFinalitySafety(); v != nil {
		t.Errorf("healthy chain reported a safety violation: %v", v)
	}
}

// TestHealthyChainToleratesMessageLoss spreads a synchronous (GST 0)
// population over four partitions whose cross-partition links suffer 20%
// outage slots; retransmissions preserve liveness.
func TestHealthyChainToleratesMessageLoss(t *testing.T) {
	cfg := healthyConfig(16)
	cfg.DropRate = 0.2
	cfg.PartitionOf = func(v types.ValidatorIndex) int { return int(v) % 4 }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(10); err != nil {
		t.Fatal(err)
	}
	if _, dropped := s.Net.Stats(); dropped == 0 {
		t.Fatal("no deliveries were delayed; the loss injection is inert")
	}
	for _, v := range s.HonestIndices() {
		if got := s.View(v).Finalized().Epoch; got < 5 {
			t.Errorf("validator %d finalized epoch %d under 20%% loss, want >= 5", v, got)
		}
	}
}

// halfSplit partitions validators into two equal halves.
func halfSplit(n int) func(types.ValidatorIndex) int {
	return func(v types.ValidatorIndex) int {
		if int(v) < n/2 {
			return 0
		}
		return 1
	}
}

// TestPartitionStallsFinalityAndStartsLeak: a 50/50 partition prevents any
// quorum; finality stops and the inactivity leak begins on both sides
// (Availability holds: candidate chains keep growing).
func TestPartitionStallsFinalityAndStartsLeak(t *testing.T) {
	cfg := healthyConfig(16)
	cfg.GST = 1 << 30
	cfg.PartitionOf = halfSplit(16)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(8); err != nil {
		t.Fatal(err)
	}
	for _, v := range s.HonestIndices() {
		n := s.View(v)
		if got := n.Finalized().Epoch; got != 0 {
			t.Errorf("validator %d finalized epoch %d during 50/50 partition, want 0", v, got)
		}
		if !n.FFG.InLeak(8, s.Cfg.Spec) {
			t.Errorf("validator %d not in leak after 8 unfinalized epochs", v)
		}
		// Availability: candidate chains grew.
		if n.Tree.Len() < 32 {
			t.Errorf("validator %d tree has only %d blocks; chain growth stalled", v, n.Tree.Len())
		}
	}
	if v := s.CheckFinalitySafety(); v != nil {
		t.Errorf("no conflicting finalization should exist yet: %v", v)
	}
}

// TestScenario51ConflictingFinalization reproduces the paper's Scenario 5.1
// mechanistically under a compressed spec: a lasting 50/50 partition drains
// inactive stake on both sides until each side regains a quorum and
// finalizes its own branch — a Safety violation with only honest
// validators.
func TestScenario51ConflictingFinalization(t *testing.T) {
	cfg := Config{
		Validators:  16,
		Spec:        types.CompressedSpec(1 << 16), // quotient 1024
		GST:         1 << 30,
		Delay:       1,
		Seed:        3,
		PartitionOf: halfSplit(16),
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var conflictEpoch types.Epoch
	for epoch := 1; epoch <= 40; epoch++ {
		if err := s.RunEpochs(1); err != nil {
			t.Fatal(err)
		}
		if v := s.CheckFinalitySafety(); v != nil {
			conflictEpoch = types.Epoch(epoch)
			break
		}
	}
	if conflictEpoch == 0 {
		t.Fatal("no conflicting finalization within 40 epochs; the leak mechanism failed")
	}
	// The compressed continuous model predicts the quorum returns via
	// ejection ~18-19 epochs after the leak starts (epoch ~5), plus the
	// finalization epoch: expect the violation in the 20-32 epoch range.
	if conflictEpoch < 15 || conflictEpoch > 35 {
		t.Errorf("conflicting finalization at epoch %d, want ~20-30 under 2^10 quotient", conflictEpoch)
	}
	// Both halves finalized different branches.
	a, b := s.View(0).Finalized(), s.View(15).Finalized()
	if a.Root == b.Root {
		t.Error("the two partitions should have finalized different branches")
	}
	t.Logf("conflicting finalization at epoch %d (%s vs %s)", conflictEpoch, a, b)
}

// TestPartitionHealsBeforeLeakCompletes: when GST arrives before either
// side regains a quorum, the sides reconcile on one branch and finality
// resumes without any Safety violation.
func TestPartitionHealsBeforeLeakCompletes(t *testing.T) {
	cfg := Config{
		Validators:  16,
		Spec:        types.CompressedSpec(1 << 16),
		GST:         8 * 32, // heal at epoch 8, well before quorum returns
		Delay:       1,
		Seed:        3,
		PartitionOf: halfSplit(16),
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(16); err != nil {
		t.Fatal(err)
	}
	if v := s.CheckFinalitySafety(); v != nil {
		t.Fatalf("healed partition must not violate safety: %v", v)
	}
	// Finality resumed after GST.
	for _, v := range s.HonestIndices() {
		if got := s.View(v).Finalized().Epoch; got < 9 {
			t.Errorf("validator %d finalized epoch %d, want >= 9 after healing", v, got)
		}
	}
}

// TestStakeConservationOnHealthyChain: outside a leak no stake moves.
func TestStakeConservationOnHealthyChain(t *testing.T) {
	s, err := New(healthyConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(6); err != nil {
		t.Fatal(err)
	}
	want := types.Gwei(8) * types.MaxEffectiveBalanceGwei
	for _, v := range s.HonestIndices() {
		if got := s.View(v).Registry.TotalStake(); got != want {
			t.Errorf("validator %d total stake = %d, want %d", v, got, want)
		}
	}
}

// TestByzantineProportionOn: the Byzantine stake proportion in a view
// starts at the Byzantine share of validators.
func TestByzantineProportionOn(t *testing.T) {
	cfg := healthyConfig(8)
	cfg.Byzantine = []types.ValidatorIndex{6, 7}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.byzantineProportionIn(s.View(0).Registry, s.View(0).Registry.TotalStake()); got != 0.25 {
		t.Errorf("initial Byzantine proportion = %v, want 0.25", got)
	}
}

func TestOnEpochHookRuns(t *testing.T) {
	var epochs []types.Epoch
	cfg := healthyConfig(8)
	cfg.OnEpoch = func(_ *Simulation, e types.Epoch) { epochs = append(epochs, e) }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(3); err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 2 || epochs[0] != 1 || epochs[1] != 2 {
		t.Errorf("OnEpoch fired for %v, want [1 2]", epochs)
	}
}

// TestFinalizedPruningBoundsTreeMemory: on a healthy chain, finalization
// keeps each view's block tree bounded to the unfinalized suffix instead of
// the whole history.
func TestFinalizedPruningBoundsTreeMemory(t *testing.T) {
	s, err := New(healthyConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(12); err != nil {
		t.Fatal(err)
	}
	// 12 epochs x ~30 blocks/epoch would be ~360 blocks unpruned; with
	// finality trailing by 2 epochs the suffix holds ~4 epochs of blocks.
	for _, c := range s.Cohorts() {
		if c.Node.Tree.Len() > 6*32 {
			t.Errorf("cohort %d tree = %d blocks; pruning not effective", c.Index, c.Node.Tree.Len())
		}
		if c.Node.Finalized().Epoch < 9 {
			t.Errorf("cohort %d finalized %d; chain unhealthy", c.Index, c.Node.Finalized().Epoch)
		}
	}
}

func TestOracleRecordsAllBlocks(t *testing.T) {
	s, err := New(healthyConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(2); err != nil {
		t.Fatal(err)
	}
	// Every block any view holds is in the oracle.
	for _, c := range s.Cohorts() {
		if c.Node.Tree.Len() > s.oracle.Len() {
			t.Errorf("cohort %d tree (%d) larger than oracle (%d)", c.Index, c.Node.Tree.Len(), s.oracle.Len())
		}
	}
	if s.oracle.Len() < 32 {
		t.Errorf("oracle has %d blocks after 2 epochs, want ~60", s.oracle.Len())
	}
}

func TestNewRejectsInertOrColludingNetworkConfig(t *testing.T) {
	// Negative partition ids would collide with the Byzantine cohort's
	// internal sentinel.
	cfg := healthyConfig(4)
	cfg.PartitionOf = func(types.ValidatorIndex) int { return -1 }
	if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative partition id accepted: %v", err)
	}
	// A drop rate without >= 2 partitions injects no loss at all (drops
	// are cross-partition link outages); reject instead of silently
	// measuring a lossless baseline.
	cfg = healthyConfig(4)
	cfg.DropRate = 0.2
	if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("inert drop rate accepted: %v", err)
	}
	cfg.PartitionOf = func(v types.ValidatorIndex) int { return int(v) % 2 }
	if _, err := New(cfg); err != nil {
		t.Errorf("drop rate with 2 partitions rejected: %v", err)
	}
	// Out-of-range rates.
	cfg.DropRate = 1.5
	if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("drop rate > 1 accepted: %v", err)
	}
}

// TestDutyRosterHandlesNonStandardEpochLength: the per-epoch duty roster
// must serve specs whose SlotsPerEpoch differs from the global 32-slot
// grid — a 16-slot spec packs all duties into the epoch's first half, and
// neither building nor consuming the roster may index out of range.
func TestDutyRosterHandlesNonStandardEpochLength(t *testing.T) {
	for _, slots := range []uint64{16, 48} {
		spec := types.DefaultSpec()
		spec.SlotsPerEpoch = slots
		cfg := Config{Validators: 8, Spec: spec, Delay: 1, Seed: 1}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunEpochs(2); err != nil {
			t.Fatalf("SlotsPerEpoch=%d: %v", slots, err)
		}
	}
}
