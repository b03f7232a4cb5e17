package blocktree

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/types"
)

// fixtureTree is the tree testdata/tree-compacted-pruned.frame holds: a
// 40-block spine with a side branch off block 10, compacted below slot 30
// with one side block pinned (two skip links, a branch point kept), pruned
// below block 10 (the root's Parent becomes its own root), then extended
// on the spine and on the pinned block.
func fixtureTree(t testing.TB) *Tree {
	tree := newTree(types.RootFromUint64(0))
	add := func(slot uint64, r, p types.Root, prop uint64) {
		t.Helper()
		if err := tree.Add(Block{Slot: types.Slot(slot), Root: r, Parent: p, Proposer: types.ValidatorIndex(prop)}); err != nil {
			t.Fatal(err)
		}
	}
	prev := types.RootFromUint64(0)
	for i := uint64(1); i <= 40; i++ {
		r := types.HashItems(i, 1)
		add(i, r, prev, i%7)
		prev = r
	}
	side := types.HashItems(10, 1)
	for i := uint64(1); i <= 5; i++ {
		r := types.HashItems(i, 2)
		add(10+i, r, side, 100+i)
		side = r
	}
	pin := types.HashItems(2, 2)
	if tree.Compact(30, func(r types.Root) bool { return r == pin }) == 0 {
		t.Fatal("fixture tree did not compact")
	}
	if _, err := tree.PruneBelow(types.HashItems(10, 1)); err != nil {
		t.Fatal(err)
	}
	for i := uint64(41); i <= 44; i++ {
		r := types.HashItems(i, 1)
		add(i, r, prev, i%7)
		prev = r
	}
	add(41, types.HashItems(41, 3), pin, 9)
	return tree
}

func encodeTree(t testing.TB, tree *Tree) []byte {
	var buf bytes.Buffer
	c := codec.NewEncoder(&buf)
	if tree.Walk(c); c.Err() != nil {
		t.Fatal(c.Err())
	}
	return buf.Bytes()
}

// decodeTree walks frame into a new tree; a frame that fails to decode
// yields no tree.
func decodeTree(frame []byte) (*Tree, error) {
	tree, c := new(Tree), codec.NewDecoder(bytes.NewReader(frame))
	if tree.Walk(c); c.Err() != nil {
		return nil, c.Err()
	}
	return tree, nil
}

func readFrame(t testing.TB, name string) []byte {
	frame, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestTreeFrameFixture: testdata/tree-compacted-pruned.frame was written by
// the encoder whose nodes still carried a copy of their parent's root. This
// build writes those exact bytes for the same tree, and reads them back
// into a tree that re-encodes to them and answers like the live one.
func TestTreeFrameFixture(t *testing.T) {
	want := readFrame(t, "tree-compacted-pruned.frame")
	live := fixtureTree(t)
	if got := encodeTree(t, live); !bytes.Equal(got, want) {
		t.Fatalf("this build's frame for the fixture tree differs from the checked-in one (%d vs %d bytes)", len(got), len(want))
	}
	decoded, err := decodeTree(want)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got := encodeTree(t, decoded); !bytes.Equal(got, want) {
		t.Fatal("the decoded fixture re-encodes differently")
	}
	if decoded.Stats() != live.Stats() || decoded.Version() != live.Version() {
		t.Fatalf("decoded stats %+v v%d, live %+v v%d", decoded.Stats(), decoded.Version(), live.Stats(), live.Version())
	}
	for i := int32(0); i < int32(live.Len()); i++ {
		if decoded.BlockAt(i) != live.BlockAt(i) {
			t.Fatalf("node %d: decoded %+v, live %+v", i, decoded.BlockAt(i), live.BlockAt(i))
		}
	}
	if g := decoded.BlockAt(0); g.Parent != g.Root {
		t.Errorf("pruned root's Parent = %v, want its own root %v", g.Parent, g.Root)
	}
}

// TestDecodeTreeRejectsParentRootMismatch: a node's Parent is read through
// its parent link, so a frame whose stored parent root names another block
// (testdata/tree-parent-root-mismatch.frame: the fixture with one bit of
// node 3's parent root flipped, which the old decoder accepted) is corrupt.
func TestDecodeTreeRejectsParentRootMismatch(t *testing.T) {
	tree, err := decodeTree(readFrame(t, "tree-parent-root-mismatch.frame"))
	if tree != nil {
		t.Fatal("accepted a frame whose parent root disagrees with its parent link")
	}
	if !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), "node 3 stores parent root") {
		t.Fatalf("rejected with %v, want codec.ErrCorrupt naming node 3's parent root", err)
	}
}

// FuzzDecodeTree: any input either decodes into a tree that re-encodes to
// the bytes it consumed, or is rejected with codec.ErrCorrupt — never a
// panic — and decoding allocates at most twice the input plus 1 MiB (pages
// arrive with their nodes' bytes: 1.33-1.37x measured on valid frames of
// 10^3 to 10^5 nodes, the pages 0.82x and the index the rest).
func FuzzDecodeTree(f *testing.F) {
	f.Add(readFrame(f, "tree-compacted-pruned.frame"))
	f.Add(readFrame(f, "tree-parent-root-mismatch.frame"))
	f.Add(encodeTree(f, newTree(types.RootFromUint64(0))))
	f.Fuzz(func(t *testing.T, frame []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tree, err := decodeTree(frame)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*uint64(len(frame))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(frame), grew)
		}
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("rejected with %v, want codec.ErrCorrupt", err)
			}
			return
		}
		if out := encodeTree(t, tree); len(out) > len(frame) || !bytes.Equal(out, frame[:len(out)]) {
			t.Fatalf("accepted %d bytes that re-encode differently (%d bytes)", len(frame), len(out))
		}
	})
}

// TestRebuildsOfACopyLeaveTheOther: Compact and PruneBelow rebuild a tree
// through scratch columns it keeps between calls. Rebuilding a clone leaves
// the original's frame as it was, and rebuilding the original leaves the
// clone's; once a tree's columns have grown, a rebuild allocates nothing.
func TestRebuildsOfACopyLeaveTheOther(t *testing.T) {
	frame := func(tree *Tree) []byte { return encodeTree(t, tree) }
	// A 300-block spine with a two-block side branch every tenth slot.
	build := func() (*Tree, []types.Root) {
		tree, roots := buildLinearChain(t, 300)
		for i := 10; i < 300; i += 10 {
			side := root(uint64(1000 + i))
			mustAdd(t, tree, Block{Slot: types.Slot(i + 1), Root: side, Parent: roots[i]})
			mustAdd(t, tree, Block{Slot: types.Slot(i + 2), Root: root(uint64(2000 + i)), Parent: side})
		}
		return tree, roots
	}
	rebuild := func(tree *Tree, roots []types.Root) {
		if folded := tree.Compact(250, func(r types.Root) bool { return r == roots[100] }); folded == 0 {
			t.Fatal("Compact folded nothing")
		}
		if removed, err := tree.PruneBelow(roots[100]); err != nil || removed == 0 {
			t.Fatalf("PruneBelow removed %d: %v", removed, err)
		}
	}

	orig, roots := build()
	rebuild(orig, roots) // grows the original's columns
	for _, rebuildFirst := range []string{"clone", "original"} {
		orig, roots = build()
		clone := orig.Clone()
		want := frame(orig)
		target, other := clone, orig
		if rebuildFirst == "original" {
			target, other = orig, clone
		}
		rebuild(target, roots)
		if !bytes.Equal(frame(other), want) {
			t.Errorf("rebuilding the %s changed the other copy", rebuildFirst)
		}
	}

	trees := make([]*Tree, 3)
	for i := range trees {
		trees[i], roots = build()
		rebuild(trees[i], roots)
	}
	call := 0
	allocs := testing.AllocsPerRun(2, func() {
		tree := trees[call]
		call++
		b := tree.BlockAt(int32(tree.Len() - 1))
		for tree.Len() < 300 {
			b = Block{Slot: b.Slot + 1, Root: root(uint64(5000 + b.Slot)), Parent: b.Root}
			if err := tree.Add(b); err != nil {
				t.Fatal(err)
			}
		}
		tree.Compact(b.Slot-50, nil)
		if _, err := tree.PruneBelow(b.Root); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("refilling and rebuilding a rebuilt tree allocated %v times, want 0", allocs)
	}
}
