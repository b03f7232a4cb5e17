package blocktree

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/types"
)

// refTree is TestRootIndexMatchesMap's reference: the blocks in index
// order, a map from root to index, and each block's folded-segment length,
// maintained from the definitions of Add, Compact and PruneBelow rather
// than from the tree's own links.
type refTree struct {
	order  []Block
	index  map[types.Root]int32
	gap    map[types.Root]int32
	folded int
}

func newRefTree(genesis types.Root) *refTree {
	ref := &refTree{index: map[types.Root]int32{}, gap: map[types.Root]int32{}}
	ref.set([]Block{{Root: genesis}})
	return ref
}

func (ref *refTree) set(order []Block) {
	ref.order = order
	clear(ref.index)
	for i, b := range order {
		ref.index[b.Root] = int32(i)
	}
}

func (ref *refTree) children(r types.Root) []types.Root {
	var out []types.Root
	for _, b := range ref.order[ref.index[r]+1:] {
		if b.Parent == r {
			out = append(out, b.Root)
		}
	}
	return out
}

// compact keeps the root, the blocks at or above olderThan, the pinned ones
// and every block two of whose children lead to a survivor; a survivor's
// Parent becomes its nearest surviving ancestor and its gap grows by each
// block folded in between plus that block's own gap.
func (ref *refTree) compact(olderThan types.Slot, pinned func(types.Root) bool) int {
	survives := map[types.Root]bool{ref.order[0].Root: true}
	leads := map[types.Root]bool{}
	for i := len(ref.order) - 1; i >= 0; i-- {
		b := ref.order[i]
		n := 0
		for _, c := range ref.children(b.Root) {
			if leads[c] {
				n++
			}
		}
		if b.Slot >= olderThan || pinned(b.Root) || n >= 2 {
			survives[b.Root] = true
		}
		leads[b.Root] = survives[b.Root] || n > 0
	}
	var kept []Block
	for i, b := range ref.order {
		if !survives[b.Root] {
			continue
		}
		if i > 0 {
			for !survives[b.Parent] {
				p := ref.order[ref.index[b.Parent]]
				ref.gap[b.Root] += 1 + ref.gap[p.Root]
				b.Parent = p.Parent
			}
		}
		kept = append(kept, b)
	}
	removed := len(ref.order) - len(kept)
	for _, b := range ref.order {
		if !survives[b.Root] {
			delete(ref.gap, b.Root)
		}
	}
	ref.folded += removed
	ref.set(kept)
	return removed
}

// prune keeps keep's subtree in pre-order, children in index order; keep's
// Parent becomes keep itself and its gap is dropped.
func (ref *refTree) prune(keep types.Root) int {
	var kept []Block
	var walk func(r types.Root)
	walk = func(r types.Root) {
		kept = append(kept, ref.order[ref.index[r]])
		for _, c := range ref.children(r) {
			walk(c)
		}
	}
	walk(keep)
	kept[0].Parent = keep
	in := map[types.Root]bool{}
	for _, b := range kept {
		in[b.Root] = true
	}
	for _, b := range ref.order {
		if !in[b.Root] {
			delete(ref.gap, b.Root)
		}
	}
	delete(ref.gap, keep)
	removed := len(ref.order) - len(kept)
	ref.set(kept)
	return removed
}

// check compares every observable of tree with ref: lookups of live and
// gone roots, each block with its Parent, the parent and child links, the
// folded gaps, Stats, and the index's sizing rule.
func (ref *refTree) check(t *testing.T, tree *Tree, gone []types.Root, step int, op string) {
	t.Helper()
	if tree.Len() != len(ref.order) {
		t.Fatalf("step %d (%s): Len %d, reference %d", step, op, tree.Len(), len(ref.order))
	}
	if n := len(tree.index); n < 2*tree.Len() || n&(n-1) != 0 {
		t.Fatalf("step %d (%s): index of %d entries for %d blocks, want a power of two >= twice the blocks", step, op, n, tree.Len())
	}
	children := map[int32][]int32{}
	for i, b := range ref.order[1:] {
		p := ref.index[b.Parent]
		children[p] = append(children[p], int32(i+1))
	}
	segments := 0
	for i, want := range ref.order {
		var linked []int32
		for c := tree.FirstChild(int32(i)); c != NoIndex; c = tree.NextSibling(c) {
			linked = append(linked, c)
		}
		if !slices.Equal(linked, children[int32(i)]) {
			t.Fatalf("step %d (%s): node %d links children %v, reference %v", step, op, i, linked, children[int32(i)])
		}
		if gi, ok := tree.IndexOf(want.Root); !ok || gi != int32(i) || !tree.Has(want.Root) {
			t.Fatalf("step %d (%s): IndexOf(%v) = %d/%v, reference %d", step, op, want.Root, gi, ok, i)
		}
		if got, err := tree.Block(want.Root); err != nil || got != want || tree.BlockAt(int32(i)) != want {
			t.Fatalf("step %d (%s): block %d = %+v (%v), reference %+v", step, op, i, got, err, want)
		}
		wantParent := NoIndex
		if i > 0 {
			wantParent = ref.index[want.Parent]
		}
		if p := tree.ParentIndex(int32(i)); p != wantParent {
			t.Fatalf("step %d (%s): node %d parent index %d, reference %d", step, op, i, p, wantParent)
		}
		if gap := tree.at(int32(i)).foldedBelow; gap != ref.gap[want.Root] {
			t.Fatalf("step %d (%s): node %d folded gap %d, reference %d", step, op, i, gap, ref.gap[want.Root])
		}
		if ref.gap[want.Root] > 0 {
			segments++
		}
	}
	for _, r := range gone {
		if _, live := ref.index[r]; live {
			continue
		}
		if i, ok := tree.IndexOf(r); ok || i != NoIndex || tree.Has(r) {
			t.Fatalf("step %d (%s): gone root %v found at %d", step, op, r, i)
		}
	}
	want := Stats{Nodes: len(ref.order), Segments: segments, Folded: ref.folded}
	if got := tree.Stats(); got.Nodes != want.Nodes || got.Segments != want.Segments || got.Folded != want.Folded {
		t.Fatalf("step %d (%s): Stats %+v, reference %+v", step, op, got, want)
	}
}

// TestRootIndexMatchesMap drives seed-derived sequences of Add, Compact,
// PruneBelow, Clone and an EncodeTo/DecodeTree round trip, and after every
// step compares the tree with a map-indexed reference: IndexOf and Has on
// live and removed roots, every Block's Parent (what Add received, or what
// Compact and PruneBelow rewrote it to), the parent links, and Stats'
// Nodes, Segments and Folded. Roots come from RootFromUint64 (sequential
// integers), from one hash varied only in its last byte, and from hashes.
// Every third seed adds 700 blocks before anything else runs.
func TestRootIndexMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x7265))
		lastByte := types.HashItems(seed, 0xff)
		var next uint64
		mint := func() types.Root {
			next++
			switch k := rng.IntN(3); {
			case k == 0:
				return types.RootFromUint64(next)
			case k == 1 && next < 256:
				r := lastByte
				r[31] = byte(next)
				return r
			default:
				return types.HashItems(seed, next)
			}
		}
		tree := newTree(types.RootFromUint64(0))
		ref := newRefTree(types.RootFromUint64(0))
		var gone []types.Root
		for step := 0; step < 1500; step++ {
			op, k := "", rng.IntN(100)
			if seed%3 == 0 && step < 700 {
				k = 0 // grow to several pages and a few index doublings first
			}
			switch {
			case k < 86:
				op = "add"
				p := ref.order[len(ref.order)-1-rng.IntN(min(len(ref.order), 12))]
				b := Block{Slot: p.Slot + 1 + types.Slot(rng.IntN(3)), Root: mint(), Parent: p.Root,
					Proposer: types.ValidatorIndex(rng.IntN(64))}
				if err := tree.Add(b); err != nil {
					t.Fatalf("seed %d step %d: Add: %v", seed, step, err)
				}
				ref.set(append(ref.order, b))
			case k < 88:
				op = "add duplicate"
				p := ref.order[len(ref.order)-1]
				dup := ref.order[rng.IntN(len(ref.order))].Root
				if err := tree.Add(Block{Slot: p.Slot + 1, Root: dup, Parent: p.Root}); !errors.Is(err, ErrDuplicate) {
					t.Fatalf("seed %d step %d: duplicate Add: %v", seed, step, err)
				}
			case k < 93:
				op = "compact"
				top := ref.order[len(ref.order)-1].Slot
				olderThan := top - min(top, types.Slot(rng.IntN(200)))
				var pins []types.Root
				for range rng.IntN(4) {
					pins = append(pins, ref.order[rng.IntN(len(ref.order))].Root)
				}
				pinned := func(r types.Root) bool { return slices.Contains(pins, r) }
				before := slices.Clone(ref.order)
				if got, want := tree.Compact(olderThan, pinned), ref.compact(olderThan, pinned); got != want {
					t.Fatalf("seed %d step %d: Compact folded %d, reference %d", seed, step, got, want)
				}
				for _, b := range before {
					gone = append(gone, b.Root)
				}
			case k < 95:
				op = "prune"
				keep := ref.order[rng.IntN(max(1, len(ref.order)/3))].Root
				before := slices.Clone(ref.order)
				got, err := tree.PruneBelow(keep)
				if want := 0; ref.index[keep] > 0 {
					want = ref.prune(keep)
					if err != nil || got != want {
						t.Fatalf("seed %d step %d: PruneBelow = %d, %v; reference %d", seed, step, got, err, want)
					}
				} else if err != nil || got != want {
					t.Fatalf("seed %d step %d: PruneBelow at the root = %d, %v", seed, step, got, err)
				}
				for _, b := range before {
					gone = append(gone, b.Root)
				}
			case k < 98:
				op = "clone"
				// Rewrite the original in place: a clone sharing its pages
				// or index would change with it.
				orig := tree
				tree = tree.Clone()
				orig.Compact(ref.order[len(ref.order)-1].Slot/2, nil)
			default:
				op = "codec"
				frame := encodeTree(t, tree)
				var err error
				if tree, err = decodeTree(frame); err != nil {
					t.Fatalf("seed %d step %d: decode: %v", seed, step, err)
				}
				if !bytes.Equal(frame, encodeTree(t, tree)) {
					t.Fatalf("seed %d step %d: re-encode differs", seed, step)
				}
			}
			if len(gone) > 4096 {
				gone = gone[len(gone)-4096:]
			}
			ref.check(t, tree, append(gone, types.HashItems(seed, 1<<40+uint64(step))), step, op)
		}
	}
}

// BenchmarkTreeIndex times the root index of a 1,024-block tree whose roots
// are hashes, as the simulator's are: Has and IndexOf hits and misses (CI
// gates them at 0 allocs/op, cmd/benchgate/gates.json), and the Adds that
// grow a tree from New to the full 1,024 blocks.
func BenchmarkTreeIndex(b *testing.B) {
	const size = 1024
	genesis := types.HashItems(0)
	blocks := make([]Block, 0, size-1)
	roots := []types.Root{genesis}
	for i := 1; i < size; i++ {
		parent := roots[i-1]
		if i%16 == 0 {
			parent = roots[i-2] // a side block every 16
		}
		r := types.HashItems(uint64(i))
		blocks = append(blocks, Block{Slot: types.Slot(i), Root: r, Parent: parent})
		roots = append(roots, r)
	}
	tree := newTree(genesis)
	for _, blk := range blocks {
		if err := tree.Add(blk); err != nil {
			b.Fatal(err)
		}
	}
	misses := make([]types.Root, size)
	for i := range misses {
		misses[i] = types.HashItems(uint64(i), 1)
	}
	for _, side := range []struct {
		name  string
		roots []types.Root
		want  bool
	}{{"hit", roots, true}, {"miss", misses, false}} {
		b.Run("has-"+side.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if tree.Has(side.roots[i%size]) != side.want {
					b.Fatal("wrong answer")
				}
			}
		})
		b.Run("indexof-"+side.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := tree.IndexOf(side.roots[i%size]); ok != side.want {
					b.Fatal("wrong answer")
				}
			}
		})
	}
	b.Run("add-1024", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := newTree(genesis)
			for _, blk := range blocks {
				if err := t.Add(blk); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
