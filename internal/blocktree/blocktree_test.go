package blocktree

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func root(v uint64) types.Root { return types.RootFromUint64(v) }

// newTree is a tree holding only genesis, built as a simulation builds its
// views' trees.
func newTree(genesis types.Root) *Tree {
	t := new(Tree)
	t.Reset(genesis)
	return t
}

// buildLinearChain constructs genesis -> b1 -> b2 ... -> bn, one block per
// slot, and returns the tree plus the roots in order (index 0 = genesis).
func buildLinearChain(t *testing.T, n int) (*Tree, []types.Root) {
	t.Helper()
	tree := newTree(root(0))
	roots := []types.Root{root(0)}
	for i := 1; i <= n; i++ {
		b := Block{Slot: types.Slot(i), Root: root(uint64(i)), Parent: roots[i-1]}
		if err := tree.Add(b); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
		roots = append(roots, b.Root)
	}
	return tree, roots
}

// buildFork creates a genesis with two branches:
//
//	genesis -> a1(slot 1) -> a2(slot 2)
//	        -> b1(slot 1') -> b2(slot 2')
//
// using distinct roots for each side.
func buildFork(t *testing.T) (*Tree, []types.Root, []types.Root) {
	t.Helper()
	tree := newTree(root(0))
	a := []types.Root{root(10), root(11)}
	b := []types.Root{root(20), root(21)}
	mustAdd(t, tree, Block{Slot: 1, Root: a[0], Parent: root(0)})
	mustAdd(t, tree, Block{Slot: 2, Root: a[1], Parent: a[0]})
	mustAdd(t, tree, Block{Slot: 1, Root: b[0], Parent: root(0)})
	mustAdd(t, tree, Block{Slot: 2, Root: b[1], Parent: b[0]})
	return tree, a, b
}

func mustAdd(t *testing.T, tree *Tree, b Block) {
	t.Helper()
	if err := tree.Add(b); err != nil {
		t.Fatalf("Add(%v): %v", b.Root, err)
	}
}

func TestNewContainsGenesis(t *testing.T) {
	tree := newTree(root(0))
	if !tree.Has(root(0)) {
		t.Fatal("genesis missing")
	}
	if tree.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tree.Len())
	}
	if tree.Genesis() != root(0) {
		t.Fatal("wrong genesis root")
	}
}

func TestAddRejectsUnknownParent(t *testing.T) {
	tree := newTree(root(0))
	err := tree.Add(Block{Slot: 1, Root: root(1), Parent: root(99)})
	if !errors.Is(err, ErrUnknownParent) {
		t.Errorf("want ErrUnknownParent, got %v", err)
	}
}

func TestAddRejectsDuplicate(t *testing.T) {
	tree, roots := buildLinearChain(t, 2)
	err := tree.Add(Block{Slot: 3, Root: roots[1], Parent: roots[2]})
	if !errors.Is(err, ErrDuplicate) {
		t.Errorf("want ErrDuplicate, got %v", err)
	}
}

func TestAddRejectsNonIncreasingSlot(t *testing.T) {
	tree, roots := buildLinearChain(t, 2)
	err := tree.Add(Block{Slot: 2, Root: root(99), Parent: roots[2]})
	if !errors.Is(err, ErrBadSlot) {
		t.Errorf("want ErrBadSlot, got %v", err)
	}
}

func TestIsAncestorLinear(t *testing.T) {
	tree, roots := buildLinearChain(t, 5)
	if !tree.IsAncestor(roots[1], roots[5]) {
		t.Error("b1 should be ancestor of b5")
	}
	if tree.IsAncestor(roots[5], roots[1]) {
		t.Error("b5 should not be ancestor of b1")
	}
	if !tree.IsAncestor(roots[3], roots[3]) {
		t.Error("a block is its own ancestor")
	}
	if tree.IsAncestor(root(99), roots[1]) || tree.IsAncestor(roots[1], root(99)) {
		t.Error("unknown blocks are never ancestors")
	}
}

func TestIsAncestorAcrossFork(t *testing.T) {
	tree, a, b := buildFork(t)
	if tree.IsAncestor(a[0], b[1]) {
		t.Error("branch A block must not be ancestor of branch B block")
	}
	if !tree.IsAncestor(root(0), a[1]) || !tree.IsAncestor(root(0), b[1]) {
		t.Error("genesis is ancestor of all blocks")
	}
}

func TestAncestorAt(t *testing.T) {
	tree, roots := buildLinearChain(t, 10)
	got, err := tree.AncestorAt(roots[10], 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != roots[7] {
		t.Errorf("AncestorAt(slot 7) = %v, want %v", got, roots[7])
	}
	got, err = tree.AncestorAt(roots[10], 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != roots[0] {
		t.Errorf("AncestorAt(slot 0) = %v, want genesis", got)
	}
	if _, err := tree.AncestorAt(root(99), 0); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("want ErrUnknownBlock, got %v", err)
	}
}

func TestAncestorAtSkippedSlots(t *testing.T) {
	// Chain with gaps: genesis(0) -> x(5) -> y(12).
	tree := newTree(root(0))
	mustAdd(t, tree, Block{Slot: 5, Root: root(1), Parent: root(0)})
	mustAdd(t, tree, Block{Slot: 12, Root: root(2), Parent: root(1)})
	got, err := tree.AncestorAt(root(2), 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != root(1) {
		t.Errorf("AncestorAt(slot 8) = %v, want block at slot 5", got)
	}
}

func TestCheckpointFor(t *testing.T) {
	// 70 slots: epochs 0 and 1 fully populated, epoch 2 starts at slot 64.
	tree, roots := buildLinearChain(t, 70)
	cp, err := tree.CheckpointFor(roots[70], 2)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Root != roots[64] || cp.Epoch != 2 {
		t.Errorf("checkpoint = %v, want epoch 2 root at slot 64", cp)
	}
	cp, err = tree.CheckpointFor(roots[70], 1)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Root != roots[32] {
		t.Errorf("checkpoint epoch 1 = %v, want slot-32 block", cp)
	}
}

func TestCheckpointForEmptyEpochStart(t *testing.T) {
	// If the first slot of the epoch is empty, the checkpoint falls back
	// to the latest earlier block.
	tree := newTree(root(0))
	mustAdd(t, tree, Block{Slot: 30, Root: root(1), Parent: root(0)})
	mustAdd(t, tree, Block{Slot: 40, Root: root(2), Parent: root(1)})
	cp, err := tree.CheckpointFor(root(2), 1) // epoch 1 starts at slot 32
	if err != nil {
		t.Fatal(err)
	}
	if cp.Root != root(1) {
		t.Errorf("checkpoint = %v, want slot-30 block", cp)
	}
}

func TestLeaves(t *testing.T) {
	tree, a, b := buildFork(t)
	leaves := tree.Leaves()
	if len(leaves) != 2 {
		t.Fatalf("leaves = %d, want 2", len(leaves))
	}
	got := map[types.Root]bool{leaves[0].Root: true, leaves[1].Root: true}
	if !got[a[1]] || !got[b[1]] {
		t.Errorf("leaves = %v, want tips of both branches", leaves)
	}
}

func TestChildrenCopied(t *testing.T) {
	tree, roots := buildLinearChain(t, 2)
	kids := tree.Children(roots[0])
	if len(kids) != 1 {
		t.Fatalf("children = %d, want 1", len(kids))
	}
	kids[0] = root(99)
	if tree.Children(roots[0])[0] == root(99) {
		t.Error("Children must return a copy")
	}
}

func TestSlot(t *testing.T) {
	tree, roots := buildLinearChain(t, 3)
	s, err := tree.Slot(roots[3])
	if err != nil || s != 3 {
		t.Errorf("Slot = %d, %v; want 3, nil", s, err)
	}
	if _, err := tree.Slot(root(99)); err == nil {
		t.Error("Slot of unknown block should error")
	}
}

func TestPruneBelow(t *testing.T) {
	tree, a, b := buildFork(t)
	// Finalize branch A's first block: branch B must vanish.
	removed, err := tree.PruneBelow(a[0])
	if err != nil {
		t.Fatal(err)
	}
	// Removed: genesis, b1, b2.
	if removed != 3 {
		t.Errorf("removed = %d, want 3", removed)
	}
	if tree.Genesis() != a[0] {
		t.Errorf("new root = %v, want %v", tree.Genesis(), a[0])
	}
	if tree.Has(b[0]) || tree.Has(b[1]) || tree.Has(root(0)) {
		t.Error("pruned blocks still present")
	}
	if !tree.Has(a[0]) || !tree.Has(a[1]) {
		t.Error("surviving branch lost")
	}
	// Ancestry still works and terminates at the new root.
	if !tree.IsAncestor(a[0], a[1]) {
		t.Error("ancestry broken after prune")
	}
	if tree.IsAncestor(a[1], a[0]) {
		t.Error("reverse ancestry after prune")
	}
	if got, err := tree.Block(a[1]); err != nil || tree.Len() != 2 || got.Parent != a[0] {
		t.Errorf("after prune: %d blocks, tip %+v (%v), want 2 with the tip on %v", tree.Len(), got, err, a[0])
	}
	// New blocks extend normally.
	if err := tree.Add(Block{Slot: 3, Root: root(30), Parent: a[1]}); err != nil {
		t.Fatal(err)
	}
	// Pruning at the current root is a no-op.
	removed, err = tree.PruneBelow(a[0])
	if err != nil || removed != 0 {
		t.Errorf("no-op prune = (%d, %v)", removed, err)
	}
	// Unknown keep block errors.
	if _, err := tree.PruneBelow(root(99)); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("want ErrUnknownBlock, got %v", err)
	}
}

func TestPruneBelowDeepChain(t *testing.T) {
	tree, roots := buildLinearChain(t, 50)
	removed, err := tree.PruneBelow(roots[40])
	if err != nil {
		t.Fatal(err)
	}
	if removed != 40 {
		t.Errorf("removed = %d, want 40", removed)
	}
	if tree.Len() != 11 {
		t.Errorf("len = %d, want 11", tree.Len())
	}
	// AncestorAt clamps at the new root.
	got, err := tree.AncestorAt(roots[50], 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != roots[40] {
		t.Errorf("AncestorAt below root = %v, want new root", got)
	}
}

func TestAncestorAtPropertyMonotone(t *testing.T) {
	tree, roots := buildLinearChain(t, 64)
	tip := roots[64]
	f := func(rawA, rawB uint8) bool {
		sa := types.Slot(rawA % 65)
		sb := types.Slot(rawB % 65)
		if sa > sb {
			sa, sb = sb, sa
		}
		ra, err1 := tree.AncestorAt(tip, sa)
		rb, err2 := tree.AncestorAt(tip, sb)
		if err1 != nil || err2 != nil {
			return false
		}
		// The ancestor at an earlier slot is an ancestor of the
		// ancestor at a later slot.
		return tree.IsAncestor(ra, rb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFlatIndexInvariants pins the contract the proto-array fork-choice
// engine builds on: indices are insertion-ordered and topological (parent
// before child), the child links walk in insertion order, and plain Adds
// never bump Version.
func TestFlatIndexInvariants(t *testing.T) {
	tree := newTree(types.RootFromUint64(0))
	v0 := tree.Version()
	for _, b := range []Block{
		{Slot: 1, Root: types.RootFromUint64(1), Parent: types.RootFromUint64(0)},
		{Slot: 1, Root: types.RootFromUint64(2), Parent: types.RootFromUint64(0)},
		{Slot: 2, Root: types.RootFromUint64(3), Parent: types.RootFromUint64(1)},
		{Slot: 3, Root: types.RootFromUint64(4), Parent: types.RootFromUint64(1)},
	} {
		if err := tree.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Version() != v0 {
		t.Error("Add must not bump Version")
	}
	for i := int32(0); i < int32(tree.Len()); i++ {
		b := tree.BlockAt(i)
		if gi, ok := tree.IndexOf(b.Root); !ok || gi != i {
			t.Errorf("IndexOf(%v) = %d/%v, want %d", b.Root, gi, ok, i)
		}
		if p := tree.ParentIndex(i); p != NoIndex && p >= i {
			t.Errorf("parent index %d of node %d not topological", p, i)
		}
		// Child links must reproduce Children() exactly.
		var linked []types.Root
		for c := tree.FirstChild(i); c != NoIndex; c = tree.NextSibling(c) {
			linked = append(linked, tree.BlockAt(c).Root)
		}
		want := tree.Children(b.Root)
		if len(linked) != len(want) {
			t.Fatalf("node %d: %d linked children, Children() has %d", i, len(linked), len(want))
		}
		for j := range want {
			if linked[j] != want[j] {
				t.Errorf("node %d child %d: link walk %v, Children %v", i, j, linked[j], want[j])
			}
		}
	}
}

// TestPruneBumpsVersionAndReindexes: compaction preserves structure,
// stays topological, and signals consumers through Version.
func TestPruneBumpsVersionAndReindexes(t *testing.T) {
	tree := newTree(types.RootFromUint64(0))
	for _, b := range []Block{
		{Slot: 1, Root: types.RootFromUint64(1), Parent: types.RootFromUint64(0)},
		{Slot: 1, Root: types.RootFromUint64(2), Parent: types.RootFromUint64(0)},
		{Slot: 2, Root: types.RootFromUint64(3), Parent: types.RootFromUint64(1)},
		{Slot: 3, Root: types.RootFromUint64(4), Parent: types.RootFromUint64(3)},
		{Slot: 4, Root: types.RootFromUint64(5), Parent: types.RootFromUint64(3)},
	} {
		if err := tree.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	v0 := tree.Version()
	removed, err := tree.PruneBelow(types.RootFromUint64(1))
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 { // genesis sibling branch (block 2) and old genesis
		t.Errorf("removed = %d, want 2", removed)
	}
	if tree.Version() == v0 {
		t.Error("PruneBelow must bump Version")
	}
	if tree.Genesis() != types.RootFromUint64(1) {
		t.Errorf("new effective root = %v", tree.Genesis())
	}
	if i, ok := tree.IndexOf(types.RootFromUint64(1)); !ok || i != 0 {
		t.Errorf("new root index = %d/%v, want 0", i, ok)
	}
	if tree.ParentIndex(0) != NoIndex {
		t.Error("new root must have no parent index")
	}
	for i := int32(1); i < int32(tree.Len()); i++ {
		if p := tree.ParentIndex(i); p == NoIndex || p >= i {
			t.Errorf("post-prune node %d has non-topological parent %d", i, p)
		}
	}
	if !tree.IsAncestor(types.RootFromUint64(3), types.RootFromUint64(5)) {
		t.Error("surviving ancestry lost in compaction")
	}
	if tree.Has(types.RootFromUint64(2)) {
		t.Error("pruned branch still present")
	}
}

// TestCompactFoldsSpine: on a deep linear chain, Compact folds everything
// older than the watermark slot into one skip segment below the retained
// suffix, bumps Version, and keeps ancestry exact over the survivors.
func TestCompactFoldsSpine(t *testing.T) {
	tree, roots := buildLinearChain(t, 50)
	v0 := tree.Version()
	removed := tree.Compact(40, nil)
	if removed != 39 { // blocks 1..39 fold; genesis and 40..50 survive
		t.Fatalf("removed = %d, want 39", removed)
	}
	if tree.Version() == v0 {
		t.Error("Compact must bump Version")
	}
	if tree.Len() != 12 {
		t.Errorf("len = %d, want 12", tree.Len())
	}
	for _, i := range []int{1, 20, 39} {
		if tree.Has(roots[i]) {
			t.Errorf("folded block %d still present", i)
		}
	}
	// The skip link: block 40's parent pointer was rewritten to the
	// nearest surviving ancestor (genesis), recording the gap length.
	b40, err := tree.Block(roots[40])
	if err != nil {
		t.Fatal(err)
	}
	if b40.Parent != roots[0] {
		t.Errorf("block 40 parent = %v, want genesis", b40.Parent)
	}
	if !tree.IsAncestor(roots[0], roots[50]) || !tree.IsAncestor(roots[40], roots[50]) {
		t.Error("ancestry broken across the fold")
	}
	st := tree.Stats()
	if st.Nodes != 12 || st.Segments != 1 || st.Folded != 39 || st.Bytes <= 0 {
		t.Errorf("Stats = %+v, want 12 nodes / 1 segment / 39 folded", st)
	}
	// Queries landing inside the folded range fail loudly instead of
	// returning a wrong ancestor; queries at surviving slots stay exact.
	if _, err := tree.AncestorAt(roots[50], 20); !errors.Is(err, ErrCompactedRange) {
		t.Errorf("AncestorAt into fold: got %v, want ErrCompactedRange", err)
	}
	if got, err := tree.AncestorAt(roots[50], 45); err != nil || got != roots[45] {
		t.Errorf("AncestorAt(45) = %v, %v", got, err)
	}
	if got, err := tree.AncestorAt(roots[50], 0); err != nil || got != roots[0] {
		t.Errorf("AncestorAt(0) = %v, %v, want genesis", got, err)
	}
	// The tree still extends normally.
	if err := tree.Add(Block{Slot: 51, Root: root(51), Parent: roots[50]}); err != nil {
		t.Fatal(err)
	}
}

// TestCompactKeepsPinnedRoots: pinned roots survive inside the folded
// range, splitting the spine into multiple skip segments, and a second
// compaction accumulates gap lengths instead of losing history.
func TestCompactKeepsPinnedRoots(t *testing.T) {
	tree, roots := buildLinearChain(t, 50)
	pin := roots[20]
	removed := tree.Compact(40, func(r types.Root) bool { return r == pin })
	if removed != 38 {
		t.Fatalf("removed = %d, want 38", removed)
	}
	if !tree.Has(pin) {
		t.Fatal("pinned root folded")
	}
	if got, err := tree.AncestorAt(roots[50], 20); err != nil || got != pin {
		t.Errorf("AncestorAt(pinned slot) = %v, %v", got, err)
	}
	if st := tree.Stats(); st.Segments != 2 || st.Folded != 38 {
		t.Errorf("Stats = %+v, want 2 segments / 38 folded", st)
	}
	// Unpin and recompact: the pinned survivor folds too, and block 40's
	// skip segment absorbs both prior gaps plus the dropped node itself.
	if r2 := tree.Compact(40, nil); r2 != 1 {
		t.Fatalf("second compact removed %d, want 1", r2)
	}
	if st := tree.Stats(); st.Segments != 1 || st.Folded != 39 {
		t.Errorf("Stats after recompact = %+v, want 1 segment / 39 folded", st)
	}
	if b40, err := tree.Block(roots[40]); err != nil || b40.Parent != roots[0] {
		t.Errorf("block 40 parent after recompact = %v, %v", b40, err)
	}
}

// TestCompactPreservesBranchPoints: an old, unpinned fork node whose both
// subtrees carry survivors is retained by the LCA closure, so the
// branches' common ancestor stays exact over the surviving set.
func TestCompactPreservesBranchPoints(t *testing.T) {
	tree := newTree(root(0))
	prev := root(0)
	var forkRoot types.Root
	for i := 1; i <= 10; i++ {
		b := Block{Slot: types.Slot(i), Root: root(uint64(i)), Parent: prev}
		mustAdd(t, tree, b)
		prev = b.Root
	}
	forkRoot = prev // slot 10
	// Two branches from the fork, both reaching past the watermark.
	for side, base := range []uint64{100, 200} {
		p := forkRoot
		for i := 11; i <= 45; i++ {
			b := Block{Slot: types.Slot(i), Root: root(base + uint64(i)), Parent: p}
			mustAdd(t, tree, b)
			p = b.Root
		}
		_ = side
	}
	removed := tree.Compact(40, nil)
	if removed == 0 {
		t.Fatal("expected compaction")
	}
	if !tree.Has(forkRoot) {
		t.Fatal("branch point folded despite surviving subtrees on both sides")
	}
	tipA, tipB := root(100+45), root(200+45)
	if tree.IsAncestor(tipA, tipB) || !tree.IsAncestor(forkRoot, tipA) || !tree.IsAncestor(forkRoot, tipB) {
		t.Error("ancestry wrong across compacted fork")
	}
	for _, kid := range tree.Children(forkRoot) {
		if tree.IsAncestor(kid, tipA) && tree.IsAncestor(kid, tipB) {
			t.Errorf("the tips meet at %v, below the fork root", kid)
		}
	}
}

// TestCompactDropsDeadBranches: a side branch that is entirely old and
// unpinned disappears wholesale — no branch point is retained for it.
func TestCompactDropsDeadBranches(t *testing.T) {
	tree, roots := buildLinearChain(t, 50)
	// Dead side branch off block 5, tip at slot 8.
	mustAdd(t, tree, Block{Slot: 6, Root: root(300), Parent: roots[5]})
	mustAdd(t, tree, Block{Slot: 7, Root: root(301), Parent: root(300)})
	mustAdd(t, tree, Block{Slot: 8, Root: root(302), Parent: root(301)})
	removed := tree.Compact(40, nil)
	if removed != 42 { // 39 spine blocks + 3 dead-branch blocks
		t.Fatalf("removed = %d, want 42", removed)
	}
	for _, r := range []types.Root{root(300), root(301), root(302), roots[5]} {
		if tree.Has(r) {
			t.Errorf("dead branch block %v survived", r)
		}
	}
	if leaves := tree.Leaves(); len(leaves) != 1 || leaves[0].Root != roots[50] {
		t.Errorf("leaves after compact = %v", leaves)
	}
}

// TestCompactNoop: when everything is retained (watermark at or below the
// oldest block), Compact returns 0 and does not bump Version.
func TestCompactNoop(t *testing.T) {
	tree, _ := buildLinearChain(t, 10)
	v0 := tree.Version()
	if removed := tree.Compact(0, nil); removed != 0 {
		t.Fatalf("removed = %d, want 0", removed)
	}
	if tree.Version() != v0 {
		t.Error("no-op Compact must not bump Version")
	}
}

// TestCompactCloneIndependence: Clone deep-copies compacted state — skip
// links, fold counters, and index — bit-identically and independently. Only
// the footprint differs: the original keeps the capacity Compact left it,
// the clone holds the live blocks alone.
func TestCompactCloneIndependence(t *testing.T) {
	tree, roots := buildLinearChain(t, 50)
	tree.Compact(40, nil)
	clone := tree.Clone()
	cs, ts := clone.Stats(), tree.Stats()
	if cs.Nodes != ts.Nodes || cs.Segments != ts.Segments || cs.Folded != ts.Folded {
		t.Fatalf("clone stats %+v != original %+v", cs, ts)
	}
	if cs.Bytes > ts.Bytes {
		t.Errorf("clone holds %d bytes, more than the original's %d", cs.Bytes, ts.Bytes)
	}
	if clone.Version() != tree.Version() {
		t.Error("clone must carry Version")
	}
	// Divergence after cloning stays local.
	mustAdd(t, clone, Block{Slot: 51, Root: root(400), Parent: roots[50]})
	if tree.Has(root(400)) {
		t.Error("clone write leaked into original")
	}
	if _, err := clone.AncestorAt(root(400), 20); !errors.Is(err, ErrCompactedRange) {
		t.Error("clone lost skip-segment ambiguity guard")
	}
}

// TestCompactReusesStorage: Compact rebuilds the tree inside the node array
// and root index it already had, so once a tree has grown to its watermark
// and folded, the Adds that bring it back to the watermark allocate nothing.
// A Clone of the compacted tree does not inherit the slack.
func TestCompactReusesStorage(t *testing.T) {
	const watermark, window = 256, 16
	// compacted grows a chain to the watermark and folds all but its last
	// window of slots, as a view does during a leak; refill brings it back.
	compacted := func() (tree *Tree, tip types.Root) {
		tree, roots := buildLinearChain(t, watermark-1)
		tree.Compact(types.Slot(watermark-window), nil)
		return tree, roots[len(roots)-1]
	}
	refill := func(tree *Tree, tip types.Root) {
		b, _ := tree.Block(tip)
		for tree.Len() < watermark {
			b = Block{Slot: b.Slot + 1, Root: root(uint64(b.Slot) + 1), Parent: b.Root}
			if err := tree.Add(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	// AllocsPerRun calls its function once to warm up before the measured
	// call, so each call refills a tree of its own.
	var trees []*Tree
	var tips []types.Root
	for range 2 {
		tree, tip := compacted()
		trees, tips = append(trees, tree), append(tips, tip)
	}
	call := 0
	allocs := testing.AllocsPerRun(1, func() {
		refill(trees[call], tips[call])
		call++
	})
	if allocs != 0 {
		t.Errorf("refilling a compacted tree to its watermark allocated %v times, want 0", allocs)
	}
	if trees[1].Len() != watermark {
		t.Fatalf("refilled tree holds %d blocks, want %d", trees[1].Len(), watermark)
	}

	tree, _ := compacted()
	if kept := len(tree.pages) * pageSize; kept < watermark-1 {
		t.Errorf("compacted tree kept %d nodes of pages, want >= %d", kept, watermark-1)
	}
	clone := tree.Clone()
	if live := (clone.Len() + pageSize - 1) / pageSize; len(clone.pages) != live || clone.Len() != tree.Len() {
		t.Errorf("clone: %d blocks in %d pages, want %d blocks in %d pages", clone.Len(), len(clone.pages), tree.Len(), live)
	}
}
