package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// The sweep scheduler: one bounded worker pool whose jobs each run one cell
// through the cell executor (runCell). With Options.WarmStart it first plans
// a snapshot tree — it groups the cells by the parameter prefix they share
// (ForkableScenario Fork keys) and simulates each shared prefix exactly once
// (one spine job per group), turning a grid whose cells re-simulate
// identical epoch-0..branch prefixes into one spine walk. A cell leaves its
// prefix in one of two ways. A stop ends where it branches (branch ==
// horizon, every cell of a horizon sweep): the spine finishes it in place,
// reading its own live simulation as it stands at that epoch — no snapshot,
// no second simulation, no job. A fork continues under its own post-branch
// parameters: the spine snapshots at that epoch, and the fork resumes from a
// deep copy as a job of its own (the executor's in-memory tier). Without
// WarmStart the plan has zero groups and every cell starts from its durable
// checkpoint or from genesis.
//
// The tree is an execution strategy, not a semantics change: results are
// bit-identical for any worker count, snapshot-reuse pattern, and eviction
// schedule (the equivalence suite enforces this).
//
// Memory: a snapshot is taken only at a branch epoch some fork continues
// from. Resident snapshots are refcounted and budgeted
// (WarmStartOptions.MemoryBudget, via sim.Snapshot.Bytes). Over budget, the
// cheapest-to-rebuild snapshots (lowest branch epoch) are evicted; a fork
// that later needs an evicted checkpoint rebuilds it from the nearest
// surviving ancestor, or from genesis. Scenarios that do not implement
// ForkableScenario — and degenerate groups of one cell — start like any
// cell of a sweep without a tree.

// entry states. An entry is one planned checkpoint: (prefix key, branch
// epoch).
const (
	statePending    = iota // spine has not reached this branch yet
	stateLive              // snapshot resident, ready to resume from
	stateEvicted           // dropped for budget; rebuild on demand
	stateRebuilding        // one cell is rebuilding; siblings wait
	stateFailed            // RunTo failed; every dependent cell fails
	stateReleased          // last dependent cell finished; memory freed
)

type entry struct {
	branch int
	// stops are the cells that end at this branch epoch; the spine finishes
	// them itself. forked says some cell continues past it — only then is
	// the entry snapshotted and published. Both are fixed by the plan.
	stops  []int
	forked bool
	// ready closes when the spine first publishes this entry (live or
	// failed); forks wait on it before consulting state.
	ready chan struct{}
	// rebuildCh is non-nil while state == stateRebuilding and closes when
	// the rebuild settles (live, evicted, or failed).
	rebuildCh chan struct{}
	// refs counts forks that still need this checkpoint; 0 releases it.
	refs int
	// pins counts in-flight rebuilds reading this checkpoint as their
	// ancestor; a pinned checkpoint is never handed out as Owned (its
	// snapshot is being read concurrently).
	pins   int
	state  int
	prefix *Prefix
	bytes  int64 // resident bytes charged (0 for aliases of an ancestor)
	err    error
}

// group is one prefix-tree spine: the cells of one scenario sharing one
// Fork key, checkpointed at their sorted distinct branch epochs.
type group struct {
	sch *sched
	fs  ForkableScenario
	// params is the representative cell's defaulted params. RunTo
	// implementations derive the prefix from pre-branch dimensions only
	// (the ForkableScenario contract), so any group member's params serve.
	params  Params
	entries map[int]*entry
	order   []int // sorted branch epochs
	// spineDone is set once runSpine has walked every branch: until then
	// the spine may still be reading its latest prefix as the base of the
	// next hop, so no checkpoint can be handed out as Owned.
	spineDone bool
}

// sched is the per-sweep scheduler state: budget accounting and the
// observability counters surfaced through WarmMeta.
type sched struct {
	mu       sync.Mutex
	budget   int64 // <= 0: unlimited
	resident int64
	peak     int64
	hits     int
	rebuilt  int
	nodes    int
	entries  []*entry // every entry across groups, for eviction scans
}

// forkJob is one cell that resumes from its group's checkpoint e.
type forkJob struct {
	idx int
	g   *group
	e   *entry
}

// PrefixGroup is the cells of one sweep that simulate the same prefix: one
// scenario, one ForkableScenario.Fork key. A cell that cannot fork (unknown
// or non-forkable scenario, params Fork declines, nothing before the branch)
// is a group of its own.
type PrefixGroup struct {
	// Cells indexes the sweep's cell slice, ascending.
	Cells []int
	// fs is the group's scenario, nil for a cell that cannot fork; params
	// (defaulted) and branch run parallel to Cells.
	fs     ForkableScenario
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
	if reg == nil {
		reg = Default
	}
	var groups []PrefixGroup
	byKey := make(map[string]int) // scenario + Fork key -> index into groups
	for i, c := range cells {
		s, _ := reg.Lookup(c.Scenario)
		fs, ok := s.(ForkableScenario)
		if !ok {
			groups = append(groups, PrefixGroup{Cells: []int{i}}) // unknown scenarios surface their error cold
			continue
		}
		p := c.Params.WithDefaults(s.Defaults())
		key, branch, forkable := fs.Fork(p)
		if !forkable || branch <= 0 {
			groups = append(groups, PrefixGroup{Cells: []int{i}})
			continue
		}
		k := c.Scenario + "\x00" + key
		gi, seen := byKey[k]
		if !seen {
			gi = len(groups)
			byKey[k] = gi
			groups = append(groups, PrefixGroup{fs: fs})
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
// whose branch is its own horizon is a stop of its entry; one that continues
// past its branch is a fork, a job of its own.
func (sch *sched) plan(reg *Registry, cells []Cell) (groups []*group, forks []forkJob, colds []int) {
	for _, pg := range PrefixGroups(reg, cells) {
		if len(pg.Cells) < 2 {
			// A lone cell gains nothing from a shared prefix. Groups come in
			// first-cell order, so colds is ascending.
			colds = append(colds, pg.Cells[0])
			continue
		}
		g := &group{sch: sch, fs: pg.fs, params: pg.params[0], entries: make(map[int]*entry)}
		for k, idx := range pg.Cells {
			branch := pg.branch[k]
			e := g.entries[branch]
			if e == nil {
				e = &entry{branch: branch, ready: make(chan struct{}), state: statePending}
				g.entries[branch] = e
				g.order = append(g.order, branch)
				sch.entries = append(sch.entries, e)
			}
			if branch == pg.params[k].Horizon {
				e.stops = append(e.stops, idx)
				continue
			}
			e.forked = true
			e.refs++
			forks = append(forks, forkJob{idx, g, e})
		}
		sort.Ints(g.order)
		sch.nodes += len(g.order)
		groups = append(groups, g)
	}
	// Shallow branches first: their checkpoints publish first.
	sort.SliceStable(forks, func(a, b int) bool { return forks[a].e.branch < forks[b].e.branch })
	return groups, forks, colds
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
	var forks []forkJob
	var colds []int
	if opt.WarmStart != nil {
		sch = &sched{budget: opt.WarmStart.Budget()}
		groups, forks, colds = sch.plan(reg, cells)
	} else {
		for i := range cells {
			colds = append(colds, i)
		}
	}

	// One pre-filled job queue (no producer goroutine to leak; workers drain
	// the remainder instantly after cancellation) holding spines, colds, and
	// forks, in that order. The ordering is the no-deadlock argument: a
	// fork blocks on its entry's ready channel, but by FIFO it is dequeued
	// only after every spine job was dequeued — and spines never wait on
	// another job — so a blocked fork's spine is always running or finished.
	total := len(groups) + len(colds) + len(forks)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > total {
		workers = total
	}
	type indexed struct {
		i   int
		res Result
	}
	finished := make(chan indexed)
	// warm runs one cell from the prefix its group holds for it — held
	// also reports the prefix epochs the cell did not simulate — and stamps
	// the warm provenance. Stops and forks are both this.
	warm := func(idx, branch int, held func(context.Context) (*Prefix, int, error)) Result {
		saved := 0
		res, _ := runCell(ctx, reg, cells[idx], nil, func(ctx context.Context) (pre *Prefix, err error) {
			pre, saved, err = held(ctx)
			return pre, err
		})
		if res.Meta != nil {
			res.Meta.Warm = sch.warmMeta(true, branch, saved)
		}
		return res
	}
	jobs := make(chan func(), total)
	for _, g := range groups {
		jobs <- func() {
			g.runSpine(ctx, func(idx, branch int, pre *Prefix, err error) {
				finished <- indexed{idx, warm(idx, branch, func(context.Context) (*Prefix, int, error) {
					return sch.lend(pre, err)
				})}
			})
		}
	}
	for _, i := range colds {
		jobs <- func() {
			res, _ := runCell(ctx, reg, cells[i], opt.Checkpoint, nil)
			if sch != nil && res.Meta != nil {
				res.Meta.Warm = sch.warmMeta(false, 0, 0)
			}
			finished <- indexed{i, res}
		}
	}
	for _, fj := range forks {
		jobs <- func() {
			res := warm(fj.idx, fj.e.branch, func(ctx context.Context) (*Prefix, int, error) {
				return fj.g.acquire(ctx, fj.e)
			})
			sch.decref(fj.e)
			finished <- indexed{fj.idx, res}
		}
	}
	close(jobs)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				job()
			}
		}()
	}
	go func() {
		wg.Wait()
		close(finished)
	}()
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

// prefixAdvancer is what a forkable scenario implements when it can extend
// a prefix without snapshotting it (simScenario.advanceTo; Prefix.freeze
// takes the snapshot later, if anyone needs it), and hand back the prefix a
// cancelled hop reached beside the context error. A scenario that cannot is
// advanced by RunTo, which returns the prefix already frozen, or none.
type prefixAdvancer interface {
	advanceTo(ctx context.Context, p Params, from *Prefix, epoch int) (*Prefix, error)
}

func advancePrefix(ctx context.Context, fs ForkableScenario, p Params, from *Prefix, epoch int) (*Prefix, error) {
	if a, ok := fs.(prefixAdvancer); ok {
		return a.advanceTo(ctx, p, from, epoch)
	}
	return fs.RunTo(ctx, p, from, epoch)
}

// runSpine walks the group's branch epochs in order, extending one prefix
// chain. At each branch it first finishes the entry's stops on this
// goroutine (stop runs one through the cell executor and emits its result),
// lending them the prefix as it stands — unfrozen unless an earlier branch
// already published it — and only then, if a fork continues from here,
// freezes and publishes it. The order matters: once published, a fork on
// another worker may claim and step the very simulation the stops read.
//
// A failed hop fails that branch's cells but keeps walking, so one bad
// extension does not doom deeper (independent) retries — under cancellation
// every remaining branch fails fast with the context error, and the prefix
// the cancelled hop reached is dropped: only the checkpoint runner has
// somewhere to save it. The failed hop
// may have consumed the live simulation of a prefix that was never frozen,
// which cannot be extended again: the walk goes on from the deepest
// resident snapshot below, else from genesis.
func (g *group) runSpine(ctx context.Context, stop func(idx, branch int, pre *Prefix, err error)) {
	var prev, published *Prefix
	for _, b := range g.order {
		e := g.entries[b]
		var pre *Prefix
		err := ctx.Err()
		if err == nil {
			pre, err = advancePrefix(ctx, g.fs, g.params, prev, b)
		}
		for _, idx := range e.stops {
			stop(idx, b, pre, err)
		}
		if err == nil && e.forked {
			err = pre.freeze()
		}
		if err != nil {
			g.sch.publishErr(e, err)
			prev = g.deepestSnapshot(b)
			continue
		}
		if e.forked {
			// A hop that returned the checkpoint published last unchanged (a
			// Done prefix — the scenario concluded before this branch) makes
			// this entry an alias of that snapshot.
			g.sch.publish(e, pre, pre == published)
			published = pre
		}
		prev = pre
	}
	g.sch.mu.Lock()
	g.spineDone = true
	g.sch.mu.Unlock()
}

// deepestSnapshot returns the prefix of the deepest resident checkpoint
// strictly below the given branch, nil (genesis) when there is none. Only
// the spine calls it, and until the spine is done no checkpoint is handed
// out as Owned, so the snapshot stays restorable.
func (g *group) deepestSnapshot(branch int) *Prefix {
	g.sch.mu.Lock()
	defer g.sch.mu.Unlock()
	if e := g.nearestLiveAncestorLocked(branch); e != nil {
		return e.prefix
	}
	return nil
}

// lend hands a stop the spine's prefix (or the hop's error) and counts the
// hit; the stop saved every epoch of the prefix.
func (s *sched) lend(pre *Prefix, err error) (*Prefix, int, error) {
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return pre, pre.Epoch, nil
}

// acquire hands a fork its checkpoint, rebuilding it first if the budget
// evicted it. Returns the prefix and the number of prefix epochs this cell
// did not have to simulate (for WarmMeta.EpochsSaved).
func (g *group) acquire(ctx context.Context, e *entry) (*Prefix, int, error) {
	select { //gasper:nondet completion-vs-cancellation: the value path is deterministic and cancellation aborts the cell
	case <-e.ready:
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	sch := g.sch
	for {
		sch.mu.Lock()
		switch e.state {
		case stateLive:
			pre := e.prefix
			sch.hits++
			// Last consumer, spine finished, nothing aliasing or pinning
			// this checkpoint: hand it over Owned, so the resume may adopt
			// the snapshot's state instead of deep-copying it. The entry is
			// consumed here — released and uncharged — because after
			// adoption the snapshot no longer holds restorable state.
			if e.refs == 1 && e.pins == 0 && g.spineDone && !g.aliasedLocked(e) {
				owned := *pre
				owned.Owned = true
				sch.resident -= e.bytes
				e.bytes = 0
				e.prefix = nil
				e.state = stateReleased
				sch.mu.Unlock()
				return &owned, owned.Epoch, nil
			}
			sch.mu.Unlock()
			return pre, pre.Epoch, nil

		case stateFailed:
			err := e.err
			sch.mu.Unlock()
			return nil, 0, err

		case stateEvicted:
			e.state = stateRebuilding
			e.rebuildCh = make(chan struct{})
			ancEntry := g.nearestLiveAncestorLocked(e.branch)
			var anc *Prefix
			if ancEntry != nil {
				// Pin the ancestor for the duration of the rebuild: RunTo
				// reads its snapshot, so it must not be handed to its own
				// resume as Owned (adoption would mutate it mid-read).
				// Eviction and release stay safe — the prefix pointer is
				// immutable and held here.
				anc = ancEntry.prefix
				ancEntry.pins++
			}
			sch.mu.Unlock()

			pre, err := g.fs.RunTo(ctx, g.params, anc, e.branch)

			sch.mu.Lock()
			if ancEntry != nil {
				ancEntry.pins--
			}
			ch := e.rebuildCh
			e.rebuildCh = nil
			if err != nil {
				if ctx.Err() != nil {
					// Cancellation is not the checkpoint's fault: leave it
					// evicted so the state machine stays consistent;
					// waiting siblings observe their own context.
					e.state = stateEvicted
				} else {
					e.state, e.err = stateFailed, err
				}
				sch.mu.Unlock()
				close(ch)
				return nil, 0, err
			}
			e.prefix = pre
			e.state = stateLive
			sch.rebuilt++
			if anc == nil || pre != anc {
				e.bytes = pre.Snap.Bytes()
				sch.resident += e.bytes
				if sch.resident > sch.peak {
					sch.peak = sch.resident
				}
				sch.enforceBudgetLocked(e)
			}
			sch.mu.Unlock()
			close(ch)
			saved := 0
			if anc != nil {
				saved = anc.Epoch
			}
			return pre, saved, nil

		case stateRebuilding:
			ch := e.rebuildCh
			sch.mu.Unlock()
			select { //gasper:nondet completion-vs-cancellation: the value path is deterministic and cancellation aborts the cell
			case <-ch:
			case <-ctx.Done():
				return nil, 0, ctx.Err()
			}

		default:
			// pending after ready, or released while this cell holds a
			// ref: both would be scheduler bugs.
			st := e.state
			sch.mu.Unlock()
			return nil, 0, fmt.Errorf("engine: checkpoint at branch %d in unexpected state %d", e.branch, st)
		}
	}
}

// nearestLiveAncestorLocked finds the deepest resident checkpoint strictly
// below the given branch in this group, for rebuilding from. Caller holds
// sch.mu.
func (g *group) nearestLiveAncestorLocked(branch int) *entry {
	for i := sort.SearchInts(g.order, branch) - 1; i >= 0; i-- {
		if e := g.entries[g.order[i]]; e.state == stateLive {
			return e
		}
	}
	return nil
}

// aliasedLocked reports whether another entry still references the same
// prefix (Done prefixes alias across deeper branches). Caller holds sch.mu.
func (g *group) aliasedLocked(e *entry) bool {
	for _, b := range g.order {
		if o := g.entries[b]; o != e && o.prefix == e.prefix {
			return true
		}
	}
	return false
}

// publish marks an entry live with the spine's prefix. An alias — an entry
// holding a snapshot an earlier entry already holds — is charged zero bytes.
func (s *sched) publish(e *entry, pre *Prefix, alias bool) {
	s.mu.Lock()
	e.prefix = pre
	e.state = stateLive
	if !alias {
		e.bytes = pre.Snap.Bytes()
		s.resident += e.bytes
		if s.resident > s.peak {
			s.peak = s.resident
		}
		s.enforceBudgetLocked(e)
	}
	s.mu.Unlock()
	close(e.ready)
}

func (s *sched) publishErr(e *entry, err error) {
	s.mu.Lock()
	e.state, e.err = stateFailed, err
	s.mu.Unlock()
	close(e.ready)
}

// enforceBudgetLocked evicts resident checkpoints, lowest branch epoch
// first (the cheapest to rebuild), until the budget holds again — never
// the entry just published (evicting it would thrash: its consumer is by
// definition about to need it). Aliases are skipped: they hold no bytes of
// their own, so evicting one frees nothing. Caller holds s.mu.
//
// Eviction is always safe: prefixes are immutable, so a resume already
// holding the pointer is unaffected; later resumes rebuild.
func (s *sched) enforceBudgetLocked(keep *entry) {
	if s.budget <= 0 {
		return
	}
	for s.resident > s.budget {
		var victim *entry
		for _, e := range s.entries {
			if e == keep || e.state != stateLive || e.bytes == 0 {
				continue
			}
			if victim == nil || e.branch < victim.branch {
				victim = e
			}
		}
		if victim == nil {
			return // only the just-published snapshot remains; keep it
		}
		s.resident -= victim.bytes
		victim.bytes = 0
		victim.prefix = nil
		victim.state = stateEvicted
	}
}

// decref retires one cell's claim on a checkpoint; the last claim releases
// the snapshot.
func (s *sched) decref(e *entry) {
	s.mu.Lock()
	e.refs--
	if e.refs <= 0 && e.state != stateRebuilding {
		if e.state == stateLive {
			s.resident -= e.bytes
		}
		e.bytes = 0
		e.prefix = nil
		e.state = stateReleased
	}
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
		Rebuilt:           s.rebuilt,
		PeakResidentBytes: s.peak,
	}
}
