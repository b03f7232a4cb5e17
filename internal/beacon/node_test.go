package beacon

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/attestation"
	"repro/internal/blocktree"
	"repro/internal/forkchoice"
	"repro/internal/slashing"
	"repro/internal/types"
	"repro/internal/validator"
)

func genesis() types.Root { return types.RootFromUint64(0) }

func newTestNode(t *testing.T, n int) *Node {
	t.Helper()
	return NewNodeWithForkChoice(n, types.DefaultSpec(), genesis(), new(forkchoice.ProtoArray))
}

func TestReceiveBlockBuffersOutOfOrder(t *testing.T) {
	n := newTestNode(t, 4)
	parent := blocktree.Block{Slot: 1, Root: types.RootFromUint64(1), Parent: genesis()}
	child := blocktree.Block{Slot: 2, Root: types.RootFromUint64(2), Parent: parent.Root}
	grandchild := blocktree.Block{Slot: 3, Root: types.RootFromUint64(3), Parent: child.Root}

	n.ReceiveBlock(grandchild)
	n.ReceiveBlock(child)
	if n.Tree.Has(child.Root) || n.Tree.Has(grandchild.Root) {
		t.Fatal("orphans must stay buffered until the parent arrives")
	}
	n.ReceiveBlock(parent)
	if !n.Tree.Has(parent.Root) || !n.Tree.Has(child.Root) || !n.Tree.Has(grandchild.Root) {
		t.Error("pending chain must flush recursively once the parent arrives")
	}
}

func TestReceiveBlockIgnoresDuplicates(t *testing.T) {
	n := newTestNode(t, 4)
	b := blocktree.Block{Slot: 1, Root: types.RootFromUint64(1), Parent: genesis()}
	n.ReceiveBlock(b)
	n.ReceiveBlock(b)
	if n.Tree.Len() != 2 {
		t.Errorf("tree len = %d, want 2", n.Tree.Len())
	}
}

// produceBlock builds the block proposer proposes at slot from n and
// applies it to n, as the simulator does for a proposer's view.
func produceBlock(t *testing.T, n *Node, slot types.Slot, proposer types.ValidatorIndex) blocktree.Block {
	t.Helper()
	b, err := n.ProduceBlockFor(slot, proposer)
	if err != nil {
		t.Fatal(err)
	}
	n.ReceiveBlock(b)
	return b
}

func TestProduceBlockExtendsHead(t *testing.T) {
	n := newTestNode(t, 4)
	b1 := produceBlock(t, n, 1, 3)
	if b1.Parent != genesis() || b1.Proposer != 3 {
		t.Errorf("block = %+v", b1)
	}
	b2 := produceBlock(t, n, 2, 3)
	if b2.Parent != b1.Root {
		t.Errorf("second block parent = %v, want %v", b2.Parent, b1.Root)
	}
}

func TestProduceBlockDeterministicRoot(t *testing.T) {
	a := newTestNode(t, 4)
	b := newTestNode(t, 4)
	ba, bb := produceBlock(t, a, 5, 3), produceBlock(t, b, 5, 3)
	if ba.Root != bb.Root {
		t.Error("same (slot, proposer, parent) must mint the same root on all views")
	}
}

func TestProduceAttestationFields(t *testing.T) {
	n := newTestNode(t, 4)
	b := produceBlock(t, n, 1, 2)
	data, err := n.AttestationData(5)
	if err != nil {
		t.Fatal(err)
	}
	if data.Slot != 5 {
		t.Errorf("slot = %d, want 5", data.Slot)
	}
	if data.Head != b.Root {
		t.Errorf("head vote = %v, want %v", data.Head, b.Root)
	}
	if data.Source != (types.Checkpoint{Epoch: 0, Root: genesis()}) {
		t.Errorf("source = %v, want genesis checkpoint", data.Source)
	}
	// Slot 5 is epoch 0: target is the epoch-0 checkpoint, i.e. genesis.
	if data.Target.Epoch != 0 || data.Target.Root != genesis() {
		t.Errorf("target = %v", data.Target)
	}
}

func TestHeadFollowsVotes(t *testing.T) {
	n := newTestNode(t, 4)
	a := blocktree.Block{Slot: 1, Root: types.RootFromUint64(10), Parent: genesis()}
	b := blocktree.Block{Slot: 1, Root: types.RootFromUint64(20), Parent: genesis()}
	n.ReceiveBlock(a)
	n.ReceiveBlock(b)
	for v := types.ValidatorIndex(0); v < 3; v++ {
		n.ReceiveAttestation(attestation.Attestation{
			Validator: v,
			Data:      attestation.Data{Slot: 1, Head: b.Root, Target: types.Checkpoint{Epoch: 0, Root: genesis()}},
		})
	}
	head, err := n.Head()
	if err != nil {
		t.Fatal(err)
	}
	if head != b.Root {
		t.Errorf("head = %v, want majority block %v", head, b.Root)
	}
}

// fullEpochOfAttestations makes every validator attest to the canonical
// chain for the given epoch on node n, voting source -> target correctly.
func fullEpochOfAttestations(t *testing.T, n *Node, epoch types.Epoch) {
	t.Helper()
	head, err := n.Head()
	if err != nil {
		t.Fatal(err)
	}
	target, err := n.Tree.CheckpointFor(head, epoch)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n.Registry.Len(); v++ {
		n.ReceiveAttestation(attestation.Attestation{
			Validator: types.ValidatorIndex(v),
			Data: attestation.Data{
				Slot:   epoch.StartSlot() + types.Slot(v),
				Head:   head,
				Source: n.FFG.LatestJustified(),
				Target: target,
			},
		})
	}
}

func TestEpochBoundaryJustifiesAndFinalizes(t *testing.T) {
	n := newTestNode(t, 8)
	// Build one block per epoch start for epochs 1..3.
	var parent types.Root = genesis()
	for e := types.Epoch(1); e <= 3; e++ {
		b := blocktree.Block{Slot: e.StartSlot(), Root: types.RootFromUint64(uint64(e) * 100), Parent: parent}
		n.ReceiveBlock(b)
		parent = b.Root
	}
	// Epoch 1 votes, processed at boundary of epoch 2.
	fullEpochOfAttestations(t, n, 1)
	rep, err := n.ProcessEpochBoundary(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FFG.NewlyJustified) != 1 {
		t.Fatalf("epoch 1 not justified: %+v", rep.FFG)
	}
	// Epoch 2 votes: source is now the epoch-1 checkpoint; consecutive
	// justification finalizes epoch 1.
	fullEpochOfAttestations(t, n, 2)
	rep, err = n.ProcessEpochBoundary(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FFG.NewlyFinalized) == 0 {
		t.Fatalf("epoch 1 not finalized: %+v", rep.FFG)
	}
	if n.Finalized().Epoch != 1 {
		t.Errorf("finalized = %v, want epoch 1", n.Finalized())
	}
}

func TestEpochBoundaryWindowCatchesLateVotes(t *testing.T) {
	n := newTestNode(t, 8)
	b := blocktree.Block{Slot: 32, Root: types.RootFromUint64(100), Parent: genesis()}
	n.ReceiveBlock(b)
	// Boundary of epoch 2 passes with no votes at all.
	if _, err := n.ProcessEpochBoundary(2); err != nil {
		t.Fatal(err)
	}
	if n.FFG.LatestJustified().Epoch != 0 {
		t.Fatal("nothing should be justified yet")
	}
	// Epoch-1 votes arrive late (e.g. released across a healed
	// partition); the window re-scan at the next boundary must pick them
	// up.
	fullEpochOfAttestations(t, n, 1)
	if _, err := n.ProcessEpochBoundary(3); err != nil {
		t.Fatal(err)
	}
	if n.FFG.LatestJustified().Epoch != 1 {
		t.Errorf("late votes not justified: %v", n.FFG.LatestJustified())
	}
}

func TestLeakStartsAfterFinalityGap(t *testing.T) {
	n := newTestNode(t, 4)
	// No votes at all: process boundaries 1..6.
	var sawLeak bool
	for e := types.Epoch(1); e <= 6; e++ {
		rep, err := n.ProcessEpochBoundary(e)
		if err != nil {
			t.Fatal(err)
		}
		if rep.InLeak {
			if e < 5 {
				t.Errorf("leak started too early at boundary %d", e)
			}
			sawLeak = true
		}
	}
	if !sawLeak {
		t.Error("leak never started despite 6 epochs without finality")
	}
	// All validators inactive: scores grew by 4 per leak epoch.
	if n.Registry.Columns().Scores[0] == 0 {
		t.Error("inactive validators must accrue score during the leak")
	}
}

func TestIncentivesProcessedOncePerEpoch(t *testing.T) {
	n := newTestNode(t, 4)
	if _, err := n.ProcessEpochBoundary(6); err != nil {
		t.Fatal(err)
	}
	score := n.Registry.Columns().Scores[0]
	// Reprocessing the same boundary must not double-apply.
	if _, err := n.ProcessEpochBoundary(6); err != nil {
		t.Fatal(err)
	}
	if n.Registry.Columns().Scores[0] != score {
		t.Error("incentives applied twice for one epoch")
	}
}

func TestSlashingEnforcement(t *testing.T) {
	n := newTestNode(t, 4)
	tgtA := types.Checkpoint{Epoch: 1, Root: types.RootFromUint64(1)}
	tgtB := types.Checkpoint{Epoch: 1, Root: types.RootFromUint64(2)}
	src := types.Checkpoint{Epoch: 0, Root: genesis()}
	var evidence []slashing.Evidence
	for _, tgt := range []types.Checkpoint{tgtA, tgtB} {
		n.ReceiveAttestation(attestation.Attestation{Validator: 2, Data: attestation.Data{Slot: 33, Head: tgt.Root, Source: src, Target: tgt}})
		evidence = append(evidence, n.batchEvidence...)
	}
	if len(evidence) != 1 {
		t.Fatalf("evidence = %d, want 1", len(evidence))
	}
	if n.Registry.Columns().Status[2] != validator.Slashed {
		t.Error("double voter must be slashed out of the set")
	}
}

func TestProcessEpochBoundaryZero(t *testing.T) {
	n := newTestNode(t, 4)
	rep, err := n.ProcessEpochBoundary(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InLeak || len(rep.FFG.NewlyJustified) > 0 || len(rep.FFG.NewlyFinalized) > 0 {
		t.Error("boundary 0 must be a no-op")
	}
}

// TestForkChoiceUsesJustifiedStateBalances: fork-choice weights come from
// the balances snapshotted at the latest justified checkpoint, not the
// current drifted registry — two views that agree on the justified
// checkpoint therefore compute the same head even when their current
// ledgers disagree (the property that lets healed partitions reconcile).
func TestForkChoiceUsesJustifiedStateBalances(t *testing.T) {
	n := newTestNode(t, 4)
	a := blocktree.Block{Slot: 1, Root: types.RootFromUint64(10), Parent: genesis()}
	c := blocktree.Block{Slot: 1, Root: types.RootFromUint64(20), Parent: genesis()}
	n.ReceiveBlock(a)
	n.ReceiveBlock(c)
	// Validator 1 votes block a, validators 2+3 vote block c.
	n.ReceiveAttestation(attestation.Attestation{Validator: 1,
		Data: attestation.Data{Slot: 2, Head: a.Root, Target: types.Checkpoint{Epoch: 0, Root: genesis()}}})
	n.ReceiveAttestation(attestation.Attestation{Validator: 2,
		Data: attestation.Data{Slot: 2, Head: c.Root, Target: types.Checkpoint{Epoch: 0, Root: genesis()}}})
	n.ReceiveAttestation(attestation.Attestation{Validator: 3,
		Data: attestation.Data{Slot: 2, Head: c.Root, Target: types.Checkpoint{Epoch: 0, Root: genesis()}}})
	// Drain validators 2 and 3 in the CURRENT registry; the justified
	// snapshot (taken at genesis) still weighs them fully.
	n.Registry.Columns().Stakes[2] = 1
	n.Registry.Columns().Stakes[3] = 1
	head, err := n.Head()
	if err != nil {
		t.Fatal(err)
	}
	if head != c.Root {
		t.Errorf("head = %v, want %v (justified-state balances, not current)", head, c.Root)
	}
}

// TestNodeRobustUnderRandomTraffic: arbitrary (possibly malformed) message
// streams never panic the node, the finalized epoch never decreases, and
// every finalized checkpoint remains justified.
func TestNodeRobustUnderRandomTraffic(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		n := newTestNode(t, 8)
		roots := []types.Root{genesis()}
		prevFinalized := n.Finalized().Epoch
		for i, op := range ops {
			switch op % 4 {
			case 0: // random (often orphaned or malformed) block
				parent := roots[rng.Intn(len(roots))]
				b := blocktree.Block{
					Slot:   types.Slot(rng.Intn(200)),
					Root:   types.RootFromUint64(uint64(seed)<<20 | uint64(i)<<8 | uint64(op)),
					Parent: parent,
				}
				n.ReceiveBlock(b)
				if n.Tree.Has(b.Root) {
					roots = append(roots, b.Root)
				}
			case 1: // random attestation
				n.ReceiveAttestation(attestation.Attestation{
					Validator: types.ValidatorIndex(rng.Intn(8)),
					Data: attestation.Data{
						Slot:   types.Slot(rng.Intn(200)),
						Head:   roots[rng.Intn(len(roots))],
						Source: types.Checkpoint{Epoch: types.Epoch(rng.Intn(4)), Root: roots[rng.Intn(len(roots))]},
						Target: types.Checkpoint{Epoch: types.Epoch(rng.Intn(6)), Root: roots[rng.Intn(len(roots))]},
					},
				})
			case 2: // epoch boundary
				if _, err := n.ProcessEpochBoundary(types.Epoch(rng.Intn(8))); err != nil {
					return false
				}
			case 3: // duties
				if _, err := n.AttestationData(types.Slot(rng.Intn(200))); err != nil {
					return false
				}
			}
			fin := n.Finalized().Epoch
			if fin < prevFinalized {
				return false // finality went backwards
			}
			prevFinalized = fin
			if !n.FFG.Justified(n.Finalized()) {
				return false // finalized but not justified
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
