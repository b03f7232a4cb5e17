package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
)

// simScenario is the one runner behind every simRow: it implements
// CheckpointableScenario (the codec half in sim_fork_codec.go) for all of
// them. Every way a cell executes is the same walk — position a
// simulation at a start (genesis or a Prefix), step it epoch by epoch under
// the row's trace, then either park it on a Prefix (advanceTo; RunTo also
// snapshots it) or finish (ResumeFrom) — so a cold run is ResumeFrom with
// no prefix: built from the cell's real config, never snapshotted.
type simScenario struct {
	row *simRow
}

func (sc *simScenario) Name() string        { return sc.row.name }
func (sc *simScenario) Description() string { return sc.row.desc }
func (sc *simScenario) Defaults() Params    { return sc.row.defaults }
func (sc *simScenario) reads() Field        { return sc.row.reads }

func (sc *simScenario) Run(ctx context.Context, p Params) (Result, error) {
	if err := sc.row.validate(p); err != nil {
		return Result{}, err
	}
	return sc.ResumeFrom(ctx, nil, p)
}

// Fork applies the row's branch rule. The prefix key is the CellKey of the
// resolved params with the post-branch dimensions zeroed: horizon always
// (it is the sweep depth, exactly what prefix sharing amortizes), and gst
// when the row branches there. Cells the cold path rejects, and cells with
// nothing before the branch (gst=0 is the no-partition baseline), do not
// fork.
func (sc *simScenario) Fork(p Params) (key string, branch int, ok bool) {
	if sc.row.validate(p) != nil {
		return "", 0, false
	}
	branch = p.Horizon
	if sc.row.branch == branchAtGST {
		branch, p.GST = min(branch, p.GST), 0
	}
	if branch <= 0 {
		return "", 0, false
	}
	if sc.row.branch != branchNone {
		p.Horizon = 0
	}
	return CellKey(sc.row.name, p), branch, true
}

func (sc *simScenario) RunTo(ctx context.Context, p Params, from *Prefix, epoch int) (*Prefix, error) {
	pre, err := sc.advanceTo(ctx, p, from, epoch)
	if err == nil {
		err = pre.freeze()
	}
	if err != nil {
		return nil, err
	}
	return pre, nil
}

// advanceTo is RunTo without the snapshot: the prefix it returns stands on
// its live simulation alone (Snap is nil until freeze). The sweep spine and
// the checkpoint runner advance this way, so that a prefix nobody will
// restore — every cell that wants it ends right there — is never deep-copied.
//
// A cancelled hop stops on an epoch boundary with every completed epoch
// observed (advance asks the context once per epoch, before stepping), so
// beside a context error advanceTo hands back the prefix it reached — nil
// when no epoch completed, and always nil beside any other error.
func (sc *simScenario) advanceTo(ctx context.Context, p Params, from *Prefix, epoch int) (*Prefix, error) {
	if from != nil && (from.Done || from.Epoch >= epoch) {
		return from, nil
	}
	s, tr, _, err := sc.advance(ctx, p, from, epoch, true)
	if err != nil {
		if s == nil || !(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return nil, err
		}
		reached := simulatedEpochs(s)
		if reached == 0 || from != nil && reached == from.Epoch {
			return nil, err
		}
		return &Prefix{Epoch: reached, trace: tr, cont: &simCont{s: s}}, err
	}
	// Parking the still-live simulation on the prefix lets the next hop
	// continue it instead of paying New + Restore (simCont).
	out := &Prefix{Epoch: epoch, trace: tr, cont: &simCont{s: s}}
	if e := tr.concluded(); e != 0 {
		out.Epoch, out.Done = e, true
	}
	return out, nil
}

// ResumeFrom completes one cell from the prefix; nil is genesis (the cold
// run, minus the validation Run does first).
func (sc *simScenario) ResumeFrom(ctx context.Context, pre *Prefix, p Params) (Result, error) {
	s, tr, elapsed, err := sc.advance(ctx, p, pre, p.Horizon, false)
	if s != nil && (pre == nil || pre.live() != s) {
		// Built, claimed, restored or adopted rather than lent: the cell
		// holds the only reference, and gives it up once the result is read.
		defer recycle(s)
	}
	if err != nil {
		return Result{}, err
	}
	res, err := sc.row.finish(ctx, p, s, tr)
	if err != nil {
		return Result{}, err
	}
	res.Meta = simMeta(s, elapsed)
	return res, nil
}

// advance positions a simulation at the prefix (nil = genesis) and steps it
// to the target epoch under a private copy of the prefix's trace, returning
// both plus the wall clock the stepping took (zero when the prefix already
// stood at or past the target, so nothing stepped). shared marks a run on
// behalf of every cell of a prefix group (advanceTo): a row that branches at
// gst then simulates unhealed, under network.FarFuture; otherwise the
// simulation carries the cell's own heal slot.
func (sc *simScenario) advance(ctx context.Context, p Params, from *Prefix, to int, shared bool) (*sim.Simulation, simTrace, time.Duration, error) {
	cfg := sc.config(p, shared)
	var tr simTrace
	fromEpoch := 0
	if from == nil {
		tr = sc.row.newTrace()
	} else {
		tr, fromEpoch = from.trace.clone(), from.Epoch
	}
	// settled: nothing is left to simulate, the cell only reads the state.
	settled := from != nil && (from.Done || from.Epoch >= to)
	var s *sim.Simulation
	var err error
	if settled && from.Snap == nil {
		// The prefix was never frozen: it is lent by the goroutine that
		// advanced it, which may go on stepping this very simulation
		// afterwards. Read it in place — no claim, no rebase onto the cell's
		// heal slot — and leave it exactly as found.
		if s = from.live(); s == nil {
			err = errSpentPrefix
		}
	} else {
		s, err = positionSim(cfg, from)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	var elapsed time.Duration
	if !settled {
		// One epoch at a time, asking the context before each (a protocol
		// epoch is orders of magnitude heavier than an aggregate one), with
		// the trace observing absolute epoch numbers: a continuation sees
		// exactly what a run from genesis would have.
		start := time.Now() //gasper:nondet wall-clock duration metadata only; never part of result identity
		for epoch := fromEpoch + 1; epoch <= to && err == nil; epoch++ {
			if err = ctx.Err(); err == nil {
				err = s.RunEpochs(1)
			}
			if err == nil && !tr.observe(s, p, epoch) {
				break
			}
		}
		elapsed = time.Since(start) //gasper:nondet wall-clock duration metadata only; never part of result identity
	}
	return s, tr, elapsed, err
}

// config is the row's simulation config for p; shared marks a run on behalf
// of a whole prefix group, which a row that branches at gst runs unhealed,
// under network.FarFuture (see advance).
func (sc *simScenario) config(p Params, shared bool) sim.Config {
	cfg := sc.row.config(p)
	if shared && sc.row.branch == branchAtGST {
		cfg.GST = network.FarFuture
	}
	return cfg
}

// simCont hands a prefix's still-live simulation to exactly one claimant.
// After advanceTo reaches a branch epoch, the simulation it advanced is
// still positioned at that boundary; parking it on the Prefix lets the
// NEXT hop (the spine's own extension, or the spine's last fork)
// continue it directly instead of paying New + Restore, and lets cells
// that end at this very epoch be read off it before anyone does (advance).
// The snapshot contract makes this invisible to results: continuing a
// simulation past a snapshot is bit-identical to restoring the snapshot
// and running (sim.TestSnapshotRestoreDeterminism pins it).
type simCont struct {
	mu sync.Mutex
	s  *sim.Simulation
}

// errSpentPrefix reports a prefix that can no longer be stood on: it was
// never frozen and a failed hop has consumed its live simulation.
var errSpentPrefix = errors.New("engine: prefix has neither a snapshot nor a live simulation")

// claim atomically takes the live simulation off a prefix; nil when absent
// or already claimed. The loser of a race restores the snapshot.
func (pre *Prefix) claim() *sim.Simulation {
	if pre.cont == nil {
		return nil
	}
	pre.cont.mu.Lock()
	defer pre.cont.mu.Unlock()
	s := pre.cont.s
	pre.cont.s = nil
	return s
}

// live returns the prefix's parked simulation without claiming it; nil when
// absent or claimed.
func (pre *Prefix) live() *sim.Simulation {
	if pre.cont == nil {
		return nil
	}
	pre.cont.mu.Lock()
	defer pre.cont.mu.Unlock()
	return pre.cont.s
}

// freeze gives a prefix advanced without a snapshot (advanceTo) its Snap,
// taken off the parked simulation; a prefix that has one is left alone. Only
// whoever advanced the prefix may freeze it, and only before sharing it.
func (pre *Prefix) freeze() error {
	if pre.Snap != nil {
		return nil
	}
	s := pre.live()
	if s == nil {
		return errSpentPrefix
	}
	pre.Snap = s.Snapshot()
	return nil
}

// forkCopy returns a prefix standing where pre stands that one consumer
// owns: a snapshot of pre's parked simulation, taken now, so the consumer
// may adopt it while whoever advanced pre goes on stepping the simulation.
// The trace is shared, as every consumer clones it. A prefix with no
// parked simulation is returned as it is, to be restored, not adopted.
func (pre *Prefix) forkCopy() *Prefix {
	s := pre.live()
	if s == nil {
		return pre
	}
	return &Prefix{Snap: s.Snapshot(), Epoch: pre.Epoch, trace: pre.trace, Done: pre.Done, Owned: true}
}

// spares holds simulations whose cells are done with them, for the next
// genesis start to reset (sim.Simulation.Reset) instead of building its
// per-validator state anew. Only a simulation nothing else references goes
// in — never one still parked on a prefix, lent to a stop or read by a
// result. The list holds at most GOMAXPROCS simulations and the collector
// does not empty it, so the bytes a run of cells allocates depend on the
// cells alone; an idle process keeps up to that many (~3.5 MB each at
// 10,000 validators).
var spares struct {
	sync.Mutex
	free  []*sim.Simulation
	stats SpareStats
}

// SpareStats accounts the spare simulations: how many are idle, and how
// many genesis starts since the process began reset a spare or built a new
// simulation.
type SpareStats struct {
	Idle  int    `json:"idle"`
	Reset uint64 `json:"reset"`
	Built uint64 `json:"built"`
}

// Spares reports the process's spare simulations.
func Spares() SpareStats {
	spares.Lock()
	defer spares.Unlock()
	st := spares.stats
	st.Idle = len(spares.free)
	return st
}

// recycle hands a simulation that nothing references any more to the next
// genesis start, unless GOMAXPROCS spares are idle already.
func recycle(s *sim.Simulation) {
	spares.Lock()
	defer spares.Unlock()
	if s != nil && len(spares.free) < runtime.GOMAXPROCS(0) {
		spares.free = append(spares.free, s)
	}
}

// genesisSim returns a simulation of cfg at genesis: the spare recycled
// last, reset, when there is one, else a new one.
func genesisSim(cfg sim.Config) (*sim.Simulation, error) {
	s := spare()
	spares.Lock()
	if s == nil {
		spares.stats.Built++
		spares.Unlock()
		return sim.New(cfg)
	}
	spares.stats.Reset++
	spares.Unlock()
	return s, s.Reset(cfg)
}

// spare takes the spare recycled last off the list; nil when none is idle.
func spare() *sim.Simulation {
	spares.Lock()
	defer spares.Unlock()
	n := len(spares.free)
	if n == 0 {
		return nil
	}
	s := spares.free[n-1]
	spares.free = spares.free[:n-1]
	return s
}

// positionSim returns a simulation configured by cfg standing at the
// prefix's checkpoint. With no prefix that is a full simulation at
// genesis: a spare reset for cfg when there is one. With a prefix, the
// deepest tier wins: claim the prefix's live
// simulation when available (rebased onto cfg's heal slot — a shared
// prefix runs under network.FarFuture, a cell under its own); otherwise
// build only a shell (sim.NewShell), because the snapshot supplies the
// cohort state: adopted (moved, zero-copy) from a prefix marked Owned,
// restored (the defensive clone) from any other. A prefix that was never
// frozen has only its live simulation: once that is spent there is nothing
// to restore.
func positionSim(cfg sim.Config, pre *Prefix) (*sim.Simulation, error) {
	if pre == nil {
		return genesisSim(cfg)
	}
	if s := pre.claim(); s != nil {
		if s.Cfg.GST != cfg.GST {
			s.SetGST(cfg.GST)
		}
		return s, nil
	}
	if pre.Snap == nil {
		return nil, errSpentPrefix
	}
	s, err := sim.NewShell(cfg)
	if err != nil {
		return nil, err
	}
	if pre.Owned {
		return s, s.Adopt(pre.Snap)
	}
	return s, s.Restore(pre.Snap)
}
