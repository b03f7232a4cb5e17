package sim

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/network"
	"repro/internal/types"
)

// laneValidators is the validator count from which an epoch whose
// partitions cannot hear each other steps lane by lane. Handing a lane to a
// worker and joining the lanes costs ~10-15 µs an epoch, and a steady
// two-view leak epoch takes 159 µs at 2,500 validators, 257 µs at 5,000 and
// 371 µs at 10,000 on one core of a 2-vCPU Xeon: from about 4,096 validators
// the second core pays for the fan-out several times over.
const laneValidators = 4096

// lane is the part of a simulation that one goroutine steps: the cohorts of
// one honest partition in an epoch where the partitions cannot hear each
// other (laned), or every cohort (laneSet.solo). What two lanes would
// share is the lane's own while it steps and the simulation's again at the
// join (Simulation.join): the live embargoes of its cohorts, the scratch of
// its head computations, and the messages it sent, which the join delivers
// to the other lanes.
type lane struct {
	// id is the lane's index in laneSet.all; alone marks the one lane that
	// holds every cohort and sends as Broadcast does.
	id      int
	alone   bool
	cohorts []*Cohort
	// embargoes are the live embargoes of the lane's cohorts, in the order
	// they were made.
	embargoes []embargo
	// scratch backs the list hiddenFor returns and the roots compactOracle
	// pins; neither outlives its call.
	scratch []types.Root
	// outbox holds what the lane sent, in send order, for the join to
	// deliver to the other lanes; next is the join's merge cursor.
	outbox []laneSend
	next   int
	err    error
	// pad keeps two lanes' hot fields, which two goroutines write at once,
	// off a shared cache line.
	_ [128]byte
}

// laneSend is one message a lane sent. Its order in a slot is ord: 0 for
// the slot's block, 1+j for the j-th bucket of the slot (slotBuckets), so
// that the join can put the sends of all lanes in the order one lane would
// have made them.
type laneSend struct {
	from types.ValidatorIndex
	at   types.Slot
	ord  int
	m    Message
}

// before reports whether a was sent before b.
func (a *laneSend) before(b *laneSend) bool {
	return a.at < b.at || a.at == b.at && a.ord < b.ord
}

// laneSet is a simulation's lane storage. It holds nothing between steps:
// the embargoes are back in Simulation.embargoes and the outboxes
// delivered, so snapshots neither carry nor miss it.
type laneSet struct {
	// solo is the one lane Step runs; all holds a lane per honest partition
	// when the population has two or more, and of maps a cohort to its lane
	// there.
	solo [1]lane
	all  []lane
	of   []int
	// tasks are a fan-out's shares for the lane workers, and pending
	// counts those not yet done.
	tasks   []laneTask
	pending atomic.Int64
}

// layout sorts cohorts into lanes: all of them into the one lane Step runs,
// and, when partitioned lanes may apply, each honest partition's into a
// lane of its own, in order of first appearance.
func (ln *laneSet) layout(cohorts []*Cohort, partitioned bool) {
	ln.solo[0].reset(0, true)
	ln.solo[0].cohorts = cohorts
	for i := range ln.all {
		ln.all[i].reset(i, false)
	}
	ln.all = ln.all[:0]
	if !partitioned {
		return
	}
	ln.of = append(ln.of[:0], make([]int, len(cohorts))...)
	byPartition := map[int]int{}
	for _, c := range cohorts {
		id, ok := byPartition[c.Partition]
		if !ok {
			id = len(ln.all)
			byPartition[c.Partition] = id
			if id == cap(ln.all) {
				ln.all = append(ln.all, lane{})
			}
			ln.all = ln.all[:id+1]
			ln.all[id].reset(id, false)
		}
		ln.of[c.Index] = id
		ln.all[id].cohorts = append(ln.all[id].cohorts, c)
	}
	if len(ln.all) < 2 {
		ln.all = ln.all[:0]
	}
}

// reset empties the lane in the storage it holds.
func (l *lane) reset(id int, alone bool) {
	clear(l.outbox)
	*l = lane{
		id: id, alone: alone, cohorts: l.cohorts[:0],
		embargoes: l.embargoes[:0], scratch: l.scratch[:0], outbox: l.outbox[:0],
	}
}

// holds reports whether cohort ci is in lane l.
func (s *Simulation) holds(l *lane, ci int) bool {
	return l.alone || s.lanes.of[ci] == l.id
}

// laned reports whether the epoch starting at the current slot, ending at
// or before end, steps a lane per honest partition: no message can pass
// between the partitions before the epoch ends — no adversary, the epoch's
// last slot before GST — no OnEpoch hook
// wants every view at the boundary, every duty bucket acts and routes
// within one lane (confined), and the run is large enough to pay for the
// fan-out on two or more processors.
func (s *Simulation) laned(end types.Slot) bool {
	const per = types.Slot(types.SlotsPerEpoch)
	floor := s.Cfg.reference.laneMin
	if floor == 0 {
		floor = laneValidators
	}
	return len(s.lanes.all) > 1 && s.Cfg.Adversary == nil && s.Cfg.OnEpoch == nil && s.slot.IsEpochStart() &&
		s.Cfg.Spec.SlotsPerEpoch == uint64(per) && s.slot+per <= min(end, s.Cfg.GST) &&
		s.Cfg.Validators >= floor && runtime.GOMAXPROCS(0) > 1 && s.confined(s.slot)
}

// confined builds the duty buckets of the epoch starting at slot, so that
// lanes only read them, and reports whether each acts from a view and
// routes through a home cohort of one lane: a duty view moved across
// partitions (SetDutyView) makes it false.
func (s *Simulation) confined(slot types.Slot) bool {
	roster := s.dutyRosterFor(slot.Epoch())
	for off := range types.SlotsPerEpoch {
		if !s.bucketsBuilt[off] {
			s.buildBuckets(off, roster[off])
		}
		for _, b := range s.slotBuckets[off] {
			if s.lanes.of[b.view] != s.lanes.of[b.home] {
				return false
			}
		}
	}
	return true
}

// stepLanes steps the epoch from the current slot lane by lane, each share
// of the lanes on its own goroutine, and joins them: the oracle compacts as
// the epoch's start left it, and then takes the epoch's blocks.
func (s *Simulation) stepLanes() error {
	slot, lanes, ln := s.slot, s.lanes.all, s.lanes
	s.split(lanes)
	g := min(len(lanes), runtime.GOMAXPROCS(0))
	ln.tasks = ln.tasks[:0]
	for i := range g {
		ln.tasks = append(ln.tasks, laneTask{s: s, lanes: lanes[i*len(lanes)/g : (i+1)*len(lanes)/g], slot: slot})
	}
	ln.pending.Store(int64(g - 1))
	work := laneWorkers(g - 1)
	for i := 1; i < g; i++ {
		work <- &ln.tasks[i]
	}
	ln.tasks[0].run()
	for polls := 1; ln.pending.Load() > 0; polls++ {
		// Take back a share no worker has started (this epoch's or another
		// simulation's) rather than wait for a worker to wake; a started
		// share is not long (its lane's epoch), but its worker may wait for
		// a processor.
		select {
		case t := <-work:
			t.run()
			t.s.lanes.pending.Add(-1)
		default:
			if polls%1024 == 0 {
				runtime.Gosched()
			}
		}
	}
	clear(ln.tasks)
	s.compactOracle(slot.Epoch())
	err := s.join(lanes)
	s.slot += types.SlotsPerEpoch
	s.laneEpochs++
	return err
}

// laneTask is one goroutine's share of an epoch's lanes.
type laneTask struct {
	s     *Simulation
	lanes []lane
	slot  types.Slot
}

// run steps the task's lanes through the epoch starting at its slot.
func (t *laneTask) run() {
	for i := range t.lanes {
		l := &t.lanes[i]
		for slot := t.slot; slot < t.slot+types.SlotsPerEpoch && l.err == nil; slot++ {
			if l.err = t.s.receive(l, slot); l.err == nil {
				t.s.act(l, slot)
			}
		}
	}
}

// laneWork feeds the lane workers: goroutines that live as long as the
// process, started as epochs need them, never more than GOMAXPROCS-1 at
// once, each stepping one share of an epoch's lanes at a time.
var laneWork struct {
	sync.Mutex
	workers int
	tasks   chan *laneTask
}

// laneSpin is how long a lane worker that finished a share polls for the
// next before it parks. A parked worker is woken by the scheduler, which on a
// virtual machine's idle vCPU takes ~80 µs (a 2-vCPU Xeon), longer than the
// serial part between two epochs of a cell (~10-20 µs); polling through a
// longer gap — one lane slower than the other, or the next cell's set-up —
// costs more processor time than the wake saves. BENCH.md (PR 69) compares
// 0, 8, 15, 25 and 50 µs on that host.
const laneSpin = 25 * time.Microsecond

// laneWorkers makes sure n lane workers run and returns their channel.
func laneWorkers(n int) chan *laneTask {
	laneWork.Lock()
	defer laneWork.Unlock()
	if laneWork.tasks == nil {
		laneWork.tasks = make(chan *laneTask, 64)
	}
	for ; laneWork.workers < n; laneWork.workers++ {
		//gasper:nondet a worker steps lanes that share no state; stepLanes waits for every share and the join merges their sends in send order
		go func(tasks chan *laneTask) {
			for {
				t := nextLaneTask(tasks)
				t.run()
				t.s.lanes.pending.Add(-1)
			}
		}(laneWork.tasks)
	}
	return laneWork.tasks
}

// nextLaneTask takes a worker's next share, polling for laneSpin before it
// parks. A poll reads the channel's length, which takes no lock.
func nextLaneTask(tasks chan *laneTask) *laneTask {
	//gasper:nondet the clock decides only how long a worker polls before it parks, never what a lane computes
	for start := time.Now(); ; {
		for range 64 {
			if len(tasks) > 0 {
				select {
				case t := <-tasks:
					return t
				default:
				}
			}
		}
		//gasper:nondet the clock decides only how long a worker polls before it parks, never what a lane computes
		if time.Since(start) > laneSpin {
			return <-tasks
		}
	}
}

// split hands each lane the live embargoes of its cohorts.
func (s *Simulation) split(lanes []lane) {
	for _, e := range s.embargoes {
		l := &lanes[0]
		if len(lanes) > 1 {
			l = &lanes[s.lanes.of[e.cohort]]
		}
		l.embargoes = append(l.embargoes, e)
	}
	s.embargoes = s.embargoes[:0]
}

// join hands the lanes' embargoes back to the simulation in the order they
// were made, and delivers what each lane sent to the other lanes in the
// order one lane would have sent it: by slot, the slot's block first, then
// its buckets in order. It returns the first lane's error.
func (s *Simulation) join(lanes []lane) error {
	var err error
	for i := range lanes {
		l := &lanes[i]
		s.embargoes = append(s.embargoes, l.embargoes...)
		l.embargoes = l.embargoes[:0]
		if err == nil {
			err = l.err
		}
		l.err = nil
	}
	if len(lanes) == 1 {
		return err
	}
	// One proposer a slot makes at most one embargo a slot, each lasting
	// Delay: the order they were made in is that of their ends.
	slices.SortFunc(s.embargoes, func(a, b embargo) int { return cmp.Compare(a.until, b.until) })
	for {
		var next *lane
		for i := range lanes {
			if l := &lanes[i]; l.next < len(l.outbox) && (next == nil || l.outbox[l.next].before(&next.outbox[next.next])) {
				next = l
			}
		}
		if next == nil {
			break
		}
		o := &next.outbox[next.next]
		next.next++
		s.recordOracle(&o.m)
		s.Net.BroadcastAcross(network.NodeID(s.cohortOf[o.from]), o.at, o.m)
	}
	for i := range lanes {
		l := &lanes[i]
		clear(l.outbox)
		l.outbox, l.next = l.outbox[:0], 0
	}
	return err
}

// send broadcasts a message a lane's validator sent at slot at, ord its
// order in the slot (laneSend): the lane that holds every cohort sends it
// as Broadcast does; any other reaches its own partition now and the
// others at the join.
func (s *Simulation) send(l *lane, from types.ValidatorIndex, at types.Slot, ord int, m Message) {
	if l.alone {
		s.Broadcast(from, at, m)
		return
	}
	s.Net.BroadcastWithin(network.NodeID(s.cohortOf[from]), at, m)
	l.outbox = append(l.outbox, laneSend{from: from, at: at, ord: ord, m: m})
}

// expireEmbargoes drops the lane's embargoes whose broadcast copies arrive
// at `slot` (the arriving duplicate is deduplicated by the tree).
func (l *lane) expireEmbargoes(slot types.Slot) {
	if len(l.embargoes) == 0 {
		return
	}
	kept := l.embargoes[:0]
	for _, e := range l.embargoes {
		if e.until > slot {
			kept = append(kept, e)
		}
	}
	l.embargoes = kept
}

// hiddenFor lists the blocks a head computation for cohort ci acting as
// `actor` must skip (the actor sees its own in-flight blocks; everyone else
// does not). hasActor=false hides every live embargoed block of the cohort.
// The list lives in a scratch slice the next call overwrites; empty means
// the unfiltered view.
//
//gasper:noalloc
func (l *lane) hiddenFor(ci int, actor types.ValidatorIndex, hasActor bool) []types.Root {
	l.scratch = l.scratch[:0]
	for _, e := range l.embargoes {
		if e.cohort == ci && (!hasActor || e.producer != actor) {
			l.scratch = append(l.scratch, e.root)
		}
	}
	return l.scratch
}

// appendOwners appends to dst, ascending, the positions in list of the
// members with a block of cohort ci still in flight (each then computes
// duties on a slightly newer view than its cohort mates): a binary search
// of the ascending list per live embargo, and one position per member
// however many embargoes it holds.
//
//gasper:noalloc
func (l *lane) appendOwners(dst []int, ci int, list []types.ValidatorIndex) []int {
	for _, e := range l.embargoes {
		if e.cohort != ci {
			continue
		}
		if k, ok := slices.BinarySearch(list, e.producer); ok && !slices.Contains(dst, k) {
			dst = append(dst, k)
		}
	}
	slices.Sort(dst)
	return dst
}
