package engine

import (
	"context"
	"runtime"
	"sort"
	"sync"
)

// The sweep scheduler: every cell runs through the cell executor (runCell),
// with at most Options.Workers goroutines running at once — one semaphore
// over spines, lone cells and forks. With Options.WarmStart it first plans a
// snapshot tree: it groups the cells by the parameter prefix they share
// (PrefixGroups) and simulates each shared prefix exactly once, on one
// spine per group, turning a grid whose cells re-simulate identical
// epoch-0..branch prefixes into one walk. A cell leaves its prefix in one of
// two ways. A stop ends where it branches (branch == horizon, every cell of
// a horizon sweep): the spine finishes it in place, reading its own live
// simulation as it stands at that epoch — no snapshot, no second
// simulation. A fork continues under its own post-branch parameters: the
// spine gives it its own copy of that state (forkCopy) and runs it on
// a free worker if there is one, else itself, before walking on. A prefix
// that has concluded (Done) has nothing left to simulate, so its forks are
// read in place like stops. Without WarmStart the plan has zero groups and
// every cell starts from its durable checkpoint or from genesis.
//
// The tree is an execution strategy, not a semantics change: results are
// bit-identical for any worker count (the equivalence suite enforces this).
//
// Memory: the spine keeps no snapshot. A fork copy lives from its branch
// until its cell finishes, and only the holder of a worker slot makes or
// runs one, so at most Workers copies exist at once
// (WarmMeta.PeakResidentBytes). A branch with k forks costs k copies (k-1
// at the last branch, whose last fork takes the simulation itself), and a
// spine whose hop fails restarts from genesis. Scenarios that do not implement
// CheckpointableScenario, and groups of one cell, start like any cell of a
// sweep without a tree.

// branch is one planned checkpoint of a group: its epoch, the cells that
// end there (stops) and the cells that continue past it (forks).
type branch struct {
	epoch int
	stops []int
	forks []int
}

// group is one prefix-tree spine: the cells of one scenario sharing one
// Fork key, by branch epoch ascending.
type group struct {
	cs CheckpointableScenario
	// params is the representative cell's resolved params. RunTo
	// implementations derive the prefix from pre-branch dimensions only
	// (the CheckpointableScenario contract), so any group member's params
	// serve.
	params   Params
	branches []branch
}

// sched holds the per-sweep counters surfaced through WarmMeta.
type sched struct {
	mu       sync.Mutex
	resident int64 // snapshot bytes of the fork copies held now
	peak     int64
	hits     int
	nodes    int
}

// PrefixGroup is the cells of one sweep that simulate the same prefix: one
// scenario, one CheckpointableScenario.Fork key. A cell that cannot fork
// (unknown or non-checkpointable scenario, params Fork declines, nothing
// before the branch) is a group of its own.
type PrefixGroup struct {
	// Cells indexes the sweep's cell slice, ascending.
	Cells []int
	// cs is the group's scenario, nil for a cell that cannot fork; params
	// (resolved) and branch run parallel to Cells.
	cs     CheckpointableScenario
	params []Params
	branch []int
}

// PrefixGroups partitions a sweep's cells by the simulated prefix they
// share, groups ordered by their first cell. It is the one place the
// sharing rule lives: the scheduler plans a spine per group of two or more
// (plan), and a dispatcher that ships a whole group to one executor
// (Options.Dispatch) hands that executor exactly the cells its scheduler
// will plan as one group.
func PrefixGroups(reg *Registry, cells []Cell) []PrefixGroup {
	var groups []PrefixGroup
	byKey := make(map[string]int) // scenario + Fork key -> index into groups
	for i, c := range cells {
		s, p, _ := resolve(reg, c)
		cs, ok := s.(CheckpointableScenario)
		if !ok {
			groups = append(groups, PrefixGroup{Cells: []int{i}}) // unknown scenarios surface their error cold
			continue
		}
		key, branch, forkable := cs.Fork(p)
		if !forkable || branch <= 0 {
			groups = append(groups, PrefixGroup{Cells: []int{i}})
			continue
		}
		k := c.Scenario + "\x00" + key
		gi, seen := byKey[k]
		if !seen {
			gi = len(groups)
			byKey[k] = gi
			groups = append(groups, PrefixGroup{cs: cs})
		}
		g := &groups[gi]
		g.Cells = append(g.Cells, i)
		g.params = append(g.params, p)
		g.branch = append(g.branch, branch)
	}
	return groups
}

// plan classifies each cell as warm (shares a prefix with at least one
// other cell) or cold, building one group per shared prefix. A warm cell
// whose branch is its own horizon is a stop of its branch; one that
// continues past it is a fork.
func (sch *sched) plan(reg *Registry, cells []Cell) (groups []*group, colds []int) {
	for _, pg := range PrefixGroups(reg, cells) {
		if len(pg.Cells) < 2 {
			// A lone cell gains nothing from a shared prefix. Groups come in
			// first-cell order, so colds is ascending.
			colds = append(colds, pg.Cells[0])
			continue
		}
		g := &group{cs: pg.cs, params: pg.params[0]}
		at := make(map[int]int) // branch epoch -> index into g.branches
		for k, idx := range pg.Cells {
			epoch := pg.branch[k]
			bi, seen := at[epoch]
			if !seen {
				bi = len(g.branches)
				at[epoch] = bi
				g.branches = append(g.branches, branch{epoch: epoch})
			}
			b := &g.branches[bi]
			if epoch == pg.params[k].Horizon {
				b.stops = append(b.stops, idx)
			} else {
				b.forks = append(b.forks, idx)
			}
		}
		sort.Slice(g.branches, func(a, b int) bool { return g.branches[a].epoch < g.branches[b].epoch })
		sch.nodes += len(g.branches)
		groups = append(groups, g)
	}
	return groups, colds
}

// schedule is SweepStream's local execution: one Update per cell in
// completion order, the channel closed after the last.
func schedule(ctx context.Context, cells []Cell, opt Options) <-chan Update {
	reg := opt.Registry
	if reg == nil {
		reg = Default
	}
	out := make(chan Update)
	if len(cells) == 0 {
		close(out)
		return out
	}
	var sch *sched // nil: no tree, no warm provenance
	var groups []*group
	var colds []int
	if opt.WarmStart != nil {
		sch = &sched{}
		groups, colds = sch.plan(reg, cells)
	} else {
		for i := range cells {
			colds = append(colds, i)
		}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	type indexed struct {
		i   int
		res Result
	}
	finished := make(chan indexed)
	// slots holds one token per running goroutine: a spine, a lone cell,
	// or a fork handed off its spine.
	slots := make(chan struct{}, workers)
	var wg sync.WaitGroup
	// spawn runs job on a goroutine of its own, which gives back the slot
	// its caller took.
	spawn := func(job func()) {
		wg.Add(1)
		//gasper:nondet a job computes one cell or spine from its own inputs and emits results tagged with their cell index, which is where a sweep files them
		go func() {
			defer wg.Done()
			job()
			<-slots
		}()
	}
	// warm finishes one cell from the prefix its spine hands it (or fails
	// it with the spine's error), stamps the warm provenance and emits it.
	// A cell that started (runCell gave it Meta) off a prefix is a hit.
	warm := func(idx, branch int, pre *Prefix, err error) {
		res, _ := runCell(ctx, reg, cells[idx], nil, pre, err)
		if res.Meta != nil {
			saved := 0
			if err == nil {
				saved = pre.Epoch
				sch.hit()
			}
			res.Meta.Warm = sch.warmMeta(true, branch, saved)
		}
		finished <- indexed{idx, res}
	}
	// fork runs one fork from the prefix its spine hands it, on a free
	// worker if there is one. Its copy's bytes (none when it took the
	// spine's own simulation) are counted as held until the cell is done
	// with it, which is while a slot is held.
	fork := func(idx, branch int, own *Prefix, bytes int64) {
		sch.hold(bytes)
		job := func() {
			warm(idx, branch, own, nil)
			sch.hold(-bytes)
		}
		select {
		case slots <- struct{}{}:
			spawn(job)
		default:
			job() // no free worker: the spine runs the fork in its own slot
		}
	}

	//gasper:nondet only hands out jobs; every result is tagged with its cell index
	go func() {
		for _, g := range groups {
			slots <- struct{}{}
			spawn(func() { g.runSpine(ctx, warm, fork) })
		}
		for _, i := range colds {
			slots <- struct{}{}
			spawn(func() {
				res, _ := runCell(ctx, reg, cells[i], opt.Checkpoint, nil, nil)
				if sch != nil && res.Meta != nil {
					res.Meta.Warm = sch.warmMeta(false, 0, 0)
				}
				finished <- indexed{i, res}
			})
		}
		// Every fork is spawned by a running spine, so none is added
		// after the count has dropped to zero.
		wg.Wait()
		close(finished)
	}()
	//gasper:nondet forwards results in the order they finish, each tagged with its cell index; only the Completed count follows that order
	go func() {
		defer close(out)
		completed := 0
		for f := range finished {
			completed++
			out <- Update{Index: f.i, Result: f.res, Completed: completed, Total: len(cells)}
		}
	}()
	return out
}

// runSpine walks the group's branch epochs in order, extending one prefix
// on this goroutine. At each branch it first finishes the stops in place
// (finish runs one cell through the cell executor and emits its result),
// lending them the prefix as it stands, then hands each fork a copy of its
// own (fork runs it, here or on a free worker); a copy that fails fails its
// cell, as a failed hop fails its branch. The spine has no use for its
// simulation after its last branch, so the last fork there takes the prefix
// itself. A prefix that concluded (Done) is never extended again: its forks
// are finished in place like stops.
//
// A failed hop fails that branch's cells but keeps walking, so one bad
// extension does not doom deeper (independent) retries — under cancellation
// every remaining branch fails fast with the context error, and the prefix
// the cancelled hop reached is dropped: only the checkpoint runner has
// somewhere to save it. The failed hop may have consumed the simulation it
// was extending, and the spine keeps no snapshot below it, so the walk goes
// on from genesis.
func (g *group) runSpine(ctx context.Context, finish func(idx, branch int, pre *Prefix, err error), fork func(idx, branch int, own *Prefix, bytes int64)) {
	var prev *Prefix
	for bi, b := range g.branches {
		var pre *Prefix
		err := ctx.Err()
		if err == nil {
			pre, err = g.cs.advanceTo(ctx, g.params, prev, b.epoch)
		}
		for _, idx := range b.stops {
			finish(idx, b.epoch, pre, err)
		}
		for k, idx := range b.forks {
			switch {
			case err != nil || pre.Done:
				finish(idx, b.epoch, pre, err)
			case bi == len(g.branches)-1 && k == len(b.forks)-1:
				fork(idx, b.epoch, pre, 0)
			default:
				if own, bytes, err := g.cs.forkCopy(g.params, pre); err != nil {
					finish(idx, b.epoch, nil, err)
				} else {
					fork(idx, b.epoch, own, bytes)
				}
			}
		}
		if err != nil {
			pre = nil
		}
		prev = pre
	}
	// Without a fork to take it at the last branch, the spine's simulation is
	// nobody's once that branch's stops are read.
	if prev != nil && len(g.branches[len(g.branches)-1].forks) == 0 {
		recycle(prev.claim())
	}
}

// hit counts one cell served from a shared prefix.
func (s *sched) hit() {
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
}

// hold adds a fork copy's snapshot bytes to those held now (negative gives
// them back), raising the peak.
func (s *sched) hold(bytes int64) {
	s.mu.Lock()
	s.resident += bytes
	s.peak = max(s.peak, s.resident)
	s.mu.Unlock()
}

// warmMeta snapshots the sweep-wide counters for one cell's RunMeta.
func (s *sched) warmMeta(hit bool, branch, saved int) *WarmMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &WarmMeta{
		Hit:               hit,
		BranchEpoch:       branch,
		EpochsSaved:       saved,
		PrefixNodes:       s.nodes,
		SnapshotHits:      s.hits,
		PeakResidentBytes: s.peak,
	}
}
