package forkchoice_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/blocktree"
	"repro/internal/forkchoice"
	"repro/internal/refmodel"
	"repro/internal/types"
)

// TestProtoArrayMatchesOracleRandomized is the engine-equivalence contract:
// over arbitrary trees, vote streams (single and batched), stake decays,
// hidden lists, and finalization prunes, the incremental proto-array engine
// returns bit-identical Head / HeadFiltered / SubtreeWeight results to the
// map-based recompute-everything oracle, which builds its visibility
// predicate from the same list, and the same latest message for every
// validator after every step. A quarter of the votes name a root no block
// will ever have, so every seed interns enough distinct roots to renumber
// the proto-array's root table, some of them with votes still queued; a
// third of the way in the proto-array is swapped for its CloneEngine copy,
// and two thirds of the way in for its WalkEngine round trip.
func TestProtoArrayMatchesOracleRandomized(t *testing.T) {
	const (
		seeds      = 25
		steps      = 400
		validators = 48
	)
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree := newTree(types.RootFromUint64(0))

		// Pre-plan a block schedule so votes can target blocks that have
		// not arrived yet (the cross-partition / in-flight case): planned
		// roots beyond nextBlock are known to voters but absent from the
		// tree until the schedule catches up.
		type planned struct {
			root   types.Root
			parent int // index into plan (parent always planned earlier)
		}
		plan := []planned{{root: types.RootFromUint64(0)}}
		for i := 1; i <= steps/2; i++ {
			plan = append(plan, planned{
				root:   types.RootFromUint64(uint64(i)),
				parent: rng.Intn(i),
			})
		}
		nextBlock := 1
		addBlock := func() {
			if nextBlock >= len(plan) {
				return
			}
			p := plan[nextBlock]
			parent := plan[p.parent].root
			if !tree.Has(parent) {
				// Parent fell to a prune; skip the whole stale branch.
				nextBlock++
				return
			}
			ps, err := tree.Slot(parent)
			if err != nil {
				t.Fatal(err)
			}
			b := blocktree.Block{
				Slot:   ps + 1 + types.Slot(rng.Intn(3)),
				Root:   p.root,
				Parent: parent,
			}
			if err := tree.Add(b); err != nil {
				t.Fatalf("seed %d: add: %v", seed, err)
			}
			nextBlock++
		}

		proto := new(forkchoice.ProtoArray)
		oracle := refmodel.NewOracle()
		engines := []forkchoice.Engine{proto, oracle}
		renumbered, tableLen, fresh := 0, 0, uint64(0)

		stakes := make([]types.Gwei, validators)
		for i := range stakes {
			stakes[i] = 32_000_000_000
		}
		pushStakes := func() {
			for _, e := range engines {
				e.UpdateStakes(validators, func(v types.ValidatorIndex) types.Gwei { return stakes[v] })
			}
		}
		pushStakes()

		treeRoots := func() []types.Root {
			var out []types.Root
			for _, pl := range plan[:nextBlock] {
				if tree.Has(pl.root) {
					out = append(out, pl.root)
				}
			}
			return out
		}

		check := func(step int) {
			roots := treeRoots()
			start := roots[rng.Intn(len(roots))]

			ph, perr := proto.Head(tree, start)
			oh, oerr := oracle.Head(tree, start)
			if (perr == nil) != (oerr == nil) || ph != oh {
				t.Fatalf("seed %d step %d: Head(%s) diverges: proto %v (%v), oracle %v (%v)",
					seed, step, start, ph, perr, oh, oerr)
			}

			// Hidden lists in every shape the descent distinguishes: a
			// random subset (mostly off the path, sometimes start or above
			// it), a root the tree does not hold, several blocks of the
			// unfiltered path below start (the shallowest decides), and all
			// but one child of a fork on that path.
			var path []types.Root // oh back to the tree's genesis
			for r := oh; ; {
				path = append(path, r)
				b, err := tree.Block(r)
				if err != nil {
					t.Fatal(err)
				}
				if r == tree.Genesis() {
					break
				}
				r = b.Parent
			}
			var hidden []types.Root
			for i := rng.Intn(3); i > 0; i-- {
				hidden = append(hidden, roots[rng.Intn(len(roots))])
			}
			if rng.Intn(4) == 0 {
				hidden = append(hidden, types.RootFromUint64(1<<40))
			}
			for i := rng.Intn(3); i > 0; i-- {
				hidden = append(hidden, path[rng.Intn(len(path))])
			}
			if rng.Intn(3) == 0 {
				siblings := tree.Children(path[rng.Intn(len(path))])
				if len(siblings) > 1 {
					hidden = append(hidden, siblings[1:]...)
				}
			}
			rng.Shuffle(len(hidden), func(i, j int) { hidden[i], hidden[j] = hidden[j], hidden[i] })
			ph, perr = proto.HeadFiltered(tree, start, hidden)
			oh, oerr = oracle.HeadFiltered(tree, start, hidden)
			if (perr == nil) != (oerr == nil) || ph != oh {
				t.Fatalf("seed %d step %d: HeadFiltered(%s, hidden %v) diverges: proto %v (%v), oracle %v (%v)",
					seed, step, start, hidden, ph, perr, oh, oerr)
			}

			probe := roots[rng.Intn(len(roots))]
			pw, perr := proto.SubtreeWeight(tree, probe)
			ow, oerr := oracle.SubtreeWeight(tree, probe)
			if perr != nil || oerr != nil || pw != ow {
				t.Fatalf("seed %d step %d: SubtreeWeight(%s) diverges: proto %d (%v), oracle %d (%v)",
					seed, step, probe, pw, perr, ow, oerr)
			}
		}
		latest := func(step int) {
			for v := types.ValidatorIndex(0); v < validators; v++ {
				pm, pok := proto.Latest(v)
				om, ook := oracle.Latest(v)
				if pok != ook || pm != om {
					t.Fatalf("seed %d step %d: Latest(%d) diverges: proto %x@%d/%v, oracle %x@%d/%v",
						seed, step, v, pm.Root[:], pm.Slot, pok, om.Root[:], om.Slot, ook)
				}
			}
		}

		// vote casts a vote or a batch, possibly for a block not yet in the tree.
		slot := types.Slot(1)
		vote := func(step int) {
			v := types.ValidatorIndex(rng.Intn(validators))
			hi := nextBlock + 5
			if hi > len(plan) {
				hi = len(plan)
			}
			target := plan[rng.Intn(hi)].root
			if rng.Intn(4) == 0 { // a root no block will ever have
				fresh++
				target = types.RootFromUint64(1<<33 + fresh)
			}
			slot += types.Slot(rng.Intn(2))
			if rng.Intn(3) == 0 { // a batch: v and a few more, unordered, one repeated
				batch := []types.ValidatorIndex{v, types.ValidatorIndex(rng.Intn(validators)), v}
				for i := rng.Intn(6); i > 0; i-- {
					batch = append(batch, types.ValidatorIndex(rng.Intn(validators)))
				}
				pc := proto.ProcessBatch(batch, target, slot)
				oc := oracle.ProcessBatch(batch, target, slot)
				if pc != oc {
					t.Fatalf("seed %d step %d: ProcessBatch replaced-count diverges: proto %d, oracle %d", seed, step, pc, oc)
				}
				return
			}
			pc := proto.Process(v, target, slot)
			oc := oracle.Process(v, target, slot)
			if pc != oc {
				t.Fatalf("seed %d step %d: Process changed-report diverges: proto %v, oracle %v", seed, step, pc, oc)
			}
		}

		for step := 0; step < steps; step++ {
			switch op := rng.Intn(11); {
			case op < 3: // grow the tree
				addBlock()
			case op < 8:
				vote(step)
			case op < 9: // stake decay / ejection
				v := rng.Intn(validators)
				switch rng.Intn(3) {
				case 0:
					stakes[v] = 0 // ejected
				case 1:
					stakes[v] = stakes[v] - stakes[v]/4 // leak penalty
				default:
					stakes[v] = 32_000_000_000 // restored
				}
				pushStakes()
			case op < 10: // finalization prune
				roots := treeRoots()
				keep := roots[rng.Intn(len(roots))]
				if _, err := tree.PruneBelow(keep); err != nil {
					t.Fatal(err)
				}
			default: // spine compaction pinning live vote targets
				roots := treeRoots()
				wm, err := tree.Slot(roots[rng.Intn(len(roots))])
				if err != nil {
					t.Fatal(err)
				}
				pinned := map[types.Root]bool{}
				for v := types.ValidatorIndex(0); v < validators; v++ {
					if m, ok := proto.Latest(v); ok {
						pinned[m.Root] = true
					}
				}
				tree.Compact(wm, func(r types.Root) bool { return pinned[r] })
			}
			if rng.Intn(3) == 0 { // a second vote, interned while the step's votes are queued
				vote(step)
			}
			if n := proto.RootTableLen(); n < tableLen {
				renumbered++
			}
			switch step {
			case steps / 3:
				proto = proto.CloneEngine().(*forkchoice.ProtoArray)
			case 2 * steps / 3:
				decoded, err := decodeEngine(encodeEngine(t, proto))
				if err != nil {
					t.Fatalf("seed %d step %d: round trip: %v", seed, step, err)
				}
				proto = decoded.(*forkchoice.ProtoArray)
			}
			engines[0] = proto
			tableLen = proto.RootTableLen()
			latest(step)
			check(step)
		}
		if renumbered == 0 {
			t.Fatalf("seed %d: %d distinct roots never renumbered the table", seed, fresh)
		}

		if proto.Len() != oracle.Len() {
			t.Fatalf("seed %d: Len diverges: proto %d, oracle %d", seed, proto.Len(), oracle.Len())
		}
	}
}

// TestHeadFilteredHiddenListCases names the hidden-list shapes one by one
// on a fixed tree, both engines against the expected head:
//
//	0 - 1 - 2 - 3 - 4 - 5        three votes on 5
//	    |    \- 30 - 300          two on 300
//	    |     \- 31               one on 31
//	    \- 10 - 11                one on 11
func TestHeadFilteredHiddenListCases(t *testing.T) {
	tree := newTree(root(0))
	for _, b := range [][2]uint64{{1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 4}, {30, 2}, {300, 30}, {31, 2}, {10, 1}, {11, 10}} {
		parent, err := tree.Slot(root(b[1]))
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Add(blocktree.Block{Slot: parent + 1, Root: root(b[0]), Parent: root(b[1])}); err != nil {
			t.Fatal(err)
		}
	}
	proto, oracle := new(forkchoice.ProtoArray), refmodel.NewOracle()
	for _, e := range []forkchoice.Engine{proto, oracle} {
		e.UpdateStakes(8, flatStake)
		e.ProcessBatch([]types.ValidatorIndex{0, 1, 2}, root(5), 9)
		e.ProcessBatch([]types.ValidatorIndex{3, 4}, root(300), 9)
		e.Process(5, root(31), 9)
		e.Process(6, root(11), 9)
	}
	cases := []struct {
		name   string
		start  uint64
		hidden []uint64
		want   uint64
	}{
		{"nothing hidden", 0, nil, 5},
		{"hidden root absent from the tree", 0, []uint64{999}, 5},
		{"hidden roots off the canonical chain", 0, []uint64{300, 11, 10}, 5},
		{"hidden start and a block above it are ignored", 2, []uint64{2, 1}, 5},
		{"hidden tip", 0, []uint64{5}, 4},
		{"several hidden on the chain, shallowest wins", 0, []uint64{5, 3, 4}, 300},
		{"shallowest wins whatever the list order", 1, []uint64{3, 5}, 300},
		{"two hidden siblings", 0, []uint64{3, 30}, 31},
		{"every child of a fork hidden", 0, []uint64{31, 3, 30}, 2},
		{"hidden below the fork on the fallback branch", 0, []uint64{3, 300}, 30},
		{"start off-chain", 30, nil, 300},
		{"start off-chain, its only child hidden", 30, []uint64{300}, 30},
		{"start off-chain, canonical blocks hidden", 10, []uint64{5, 3}, 11},
	}
	for _, tc := range cases {
		var hidden []types.Root
		for _, h := range tc.hidden {
			hidden = append(hidden, root(h))
		}
		for name, e := range map[string]forkchoice.Engine{"proto": proto, "oracle": oracle} {
			got, err := e.HeadFiltered(tree, root(tc.start), hidden)
			if err != nil || got != root(tc.want) {
				t.Errorf("%s (%s): head = %v (%v), want %v", tc.name, name, got, err, root(tc.want))
			}
		}
	}
}

// TestProtoArrayUnresolvedVoteResolvesOnArrival: a vote for a block the
// view has not received is ignored (matching the oracle) and starts
// counting the instant the block arrives.
func TestProtoArrayUnresolvedVoteResolvesOnArrival(t *testing.T) {
	tree := newTree(root(0))
	if err := tree.Add(blocktree.Block{Slot: 1, Root: root(10), Parent: root(0)}); err != nil {
		t.Fatal(err)
	}
	p := new(forkchoice.ProtoArray)
	p.UpdateStakes(4, flatStake)
	p.Process(1, root(20), 2) // block 20 still in flight
	head, err := p.Head(tree, root(0))
	if err != nil {
		t.Fatal(err)
	}
	if head != root(10) {
		t.Fatalf("head = %v, want %v (vote for missing block ignored)", head, root(10))
	}
	if err := tree.Add(blocktree.Block{Slot: 1, Root: root(20), Parent: root(0)}); err != nil {
		t.Fatal(err)
	}
	head, err = p.Head(tree, root(0))
	if err != nil {
		t.Fatal(err)
	}
	if head != root(20) {
		t.Fatalf("head = %v, want %v (parked vote must apply when its block arrives)", head, root(20))
	}
}

// TestProtoArrayCloneIndependence: a cloned engine diverges from its
// original without sharing vote or weight state.
func TestProtoArrayCloneIndependence(t *testing.T) {
	tree := newTree(root(0))
	for _, b := range []blocktree.Block{
		{Slot: 1, Root: root(10), Parent: root(0)},
		{Slot: 1, Root: root(20), Parent: root(0)},
	} {
		if err := tree.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	p := new(forkchoice.ProtoArray)
	p.UpdateStakes(4, flatStake)
	p.Process(1, root(10), 1)
	if _, err := p.Head(tree, root(0)); err != nil {
		t.Fatal(err)
	}
	c := p.CloneEngine()
	c.Process(1, root(20), 2)
	c.Process(2, root(20), 2)
	ch, err := c.Head(tree, root(0))
	if err != nil {
		t.Fatal(err)
	}
	if ch != root(20) {
		t.Fatalf("clone head = %v, want %v", ch, root(20))
	}
	ph, err := p.Head(tree, root(0))
	if err != nil {
		t.Fatal(err)
	}
	if ph != root(10) {
		t.Fatalf("original head = %v after clone mutation, want %v", ph, root(10))
	}
	if m, _ := p.Latest(1); m.Root != root(10) {
		t.Error("clone mutation leaked into original's latest messages")
	}
}

// TestProtoArrayResetForgetsPreviousRun: an engine recycled by Reset keeps
// its root table's storage but none of its roots. After a second run over
// fewer validators, with enough distinct roots to renumber the table and
// some of the first run's roots among them, its Latest answers as a new
// engine's fed the same votes — no vote beyond the new width, never a
// root the second run did not vote for — and it encodes to the same bytes.
func TestProtoArrayResetForgetsPreviousRun(t *testing.T) {
	recycled := votedEngine(t, 200)
	if recycled.Len() == 0 {
		t.Fatal("the first run cast no votes")
	}
	recycled.Reset()
	fresh := new(forkchoice.ProtoArray)
	const width = 64
	voted := map[types.Root]bool{}
	rng := rand.New(rand.NewSource(11))
	for _, p := range []*forkchoice.ProtoArray{recycled, fresh} {
		p.UpdateStakes(width, flatStake)
	}
	for slot := types.Slot(1); slot <= 300; slot++ {
		r := types.RootFromUint64(1<<20 + uint64(rng.Intn(150)))
		if rng.Intn(5) == 0 { // one of the first run's roots
			r = types.RootFromUint64(uint64(rng.Intn(40)))
		}
		voted[r] = true
		batch := []types.ValidatorIndex{types.ValidatorIndex(rng.Intn(width)), types.ValidatorIndex(rng.Intn(width))}
		if a, b := recycled.ProcessBatch(batch, r, slot), fresh.ProcessBatch(batch, r, slot); a != b {
			t.Fatalf("slot %d: recycled replaced %d votes, new engine %d", slot, a, b)
		}
	}
	if recycled.RootTableLen() >= len(voted) {
		t.Fatalf("%d distinct roots never renumbered a %d-entry table", len(voted), recycled.RootTableLen())
	}
	for v := types.ValidatorIndex(0); v < 200; v++ {
		rm, rok := recycled.Latest(v)
		fm, fok := fresh.Latest(v)
		if rok != fok || rm != fm || rok && !voted[rm.Root] {
			t.Fatalf("Latest(%d): recycled %v/%v, new engine %v/%v", v, rm, rok, fm, fok)
		}
	}
	if recycled.Len() != fresh.Len() || !bytes.Equal(encodeEngine(t, recycled), encodeEngine(t, fresh)) {
		t.Fatalf("recycled engine (%d votes) encodes differently from a new one (%d)", recycled.Len(), fresh.Len())
	}
}

// TestProtoArraySteadyStateHeadDoesNotAllocate pins the hot-path contract
// the CI bench gate enforces: once votes are applied, a head query is a
// pointer chase with zero allocations.
func TestProtoArraySteadyStateHeadDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tree, roots := randomTree(rng, 300)
	p := new(forkchoice.ProtoArray)
	p.UpdateStakes(1024, flatStake)
	for v := 0; v < 1024; v++ {
		p.Process(types.ValidatorIndex(v), roots[rng.Intn(len(roots))], types.Slot(v+1))
	}
	if _, err := p.Head(tree, tree.Genesis()); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Head(tree, tree.Genesis()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Head allocates %.1f times per call, want 0", allocs)
	}
}

// TestProtoArrayCompactRebuildDeepChainWithParkedVotes covers the
// Compact -> Version-bump -> engine-rebuild path at leak depth: a
// 2000-block spine folds down to its recent suffix while parked
// (unresolved) votes survive the rebuild and resolve the instant their
// block arrives, bit-identically to the oracle throughout.
func TestProtoArrayCompactRebuildDeepChainWithParkedVotes(t *testing.T) {
	const depth = 2000
	tree := newTree(root(0))
	for i := 1; i <= depth; i++ {
		b := blocktree.Block{Slot: types.Slot(i), Root: root(uint64(i)), Parent: root(uint64(i - 1))}
		if err := tree.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	proto := new(forkchoice.ProtoArray)
	oracle := refmodel.NewOracle()
	engines := []forkchoice.Engine{proto, oracle}
	for _, e := range engines {
		e.UpdateStakes(8, flatStake)
	}
	inFlight := root(999999) // voted for before it exists in any view
	for _, e := range engines {
		e.Process(0, root(depth), 1)
		e.Process(1, root(depth), 1)
		e.Process(2, root(1990), 1)
		e.Process(3, inFlight, 1)
		e.Process(4, inFlight, 1)
		e.Process(5, inFlight, 1)
	}
	heads := func(label string, want types.Root) {
		t.Helper()
		ph, perr := proto.Head(tree, root(0))
		oh, oerr := oracle.Head(tree, root(0))
		if perr != nil || oerr != nil || ph != oh {
			t.Fatalf("%s: heads diverge: proto %v (%v), oracle %v (%v)", label, ph, perr, oh, oerr)
		}
		if ph != want {
			t.Fatalf("%s: head = %v, want %v", label, ph, want)
		}
	}
	heads("pre-compaction", root(depth))

	v0 := tree.Version()
	pinned := map[types.Root]bool{}
	for v := types.ValidatorIndex(0); v < 8; v++ {
		if m, ok := proto.Latest(v); ok {
			pinned[m.Root] = true
		}
	}
	removed := tree.Compact(1900, func(r types.Root) bool { return pinned[r] })
	if removed != 1899 {
		t.Fatalf("removed = %d, want 1899", removed)
	}
	if tree.Version() == v0 {
		t.Fatal("Compact must bump Version to force engine rebuilds")
	}
	heads("post-compaction rebuild", root(depth))

	// The in-flight block lands on a surviving branch point: the parked
	// votes (3 x flat stake vs 2 on the old tip) flip the head at once.
	if err := tree.Add(blocktree.Block{Slot: 1991, Root: inFlight, Parent: root(1990)}); err != nil {
		t.Fatal(err)
	}
	heads("parked votes resolved", inFlight)
}
