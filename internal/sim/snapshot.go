package sim

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"unsafe"

	"repro/internal/beacon"
	"repro/internal/blocktree"
	"repro/internal/codec"
	"repro/internal/forkchoice"
	"repro/internal/network"
	"repro/internal/types"
)

// Snapshot is a frozen copy of a simulation's full protocol state at a
// slot boundary: every cohort view (block tree, fork-choice engine, FFG
// state, attestation pool, slashing detector, registry), the in-flight
// network messages, duty-view assignments, live proposer embargoes, the
// Safety-audit oracle, and the clock. Construct with Simulation.Snapshot;
// replay with Simulation.Restore.
//
// A snapshot is immutable once taken: Restore clones it again, so one
// snapshot can seed any number of continuations — long runs become
// resumable, and sweeps whose cells share a prefix (same Config up to the
// branch point) warm-start from one simulated prefix instead of
// re-simulating epoch 0 per cell (see the sweep scheduler in
// internal/engine, sched.go, which hands each fork of a shared prefix a
// snapshot of its own).
//
// Everything pseudo-random in the simulator is a stateless hash of
// (seed, slot, ...) — proposer schedule, duty shuffling, link outages —
// so the snapshot needs no RNG cursor beyond the slot itself: a restored
// run re-derives the identical schedule. Config.Adversary's state rides in
// the snapshot when the adversary walks it (a Walk(*codec.Coder) method,
// as behavior's SemiActive and Bouncer have): Snapshot encodes it, and
// Restore, Adopt and Load decode it into the restoring simulation's own
// adversary, which must be of the type that wrote it. What the adversary
// was configured with is that simulation's, as its spec is. An adversary
// without a walk — the stateless DoubleVoter, or one outside the module —
// is left as it stands.
//
// GST portability: a snapshot may be restored into a simulation whose
// Config.GST differs from the snapshotted run's — Restore retargets the
// held cross-partition traffic onto the new heal slot
// (network.RetargetGST). Prefix runs meant for fan-out across a gst sweep
// use network.FarFuture (held messages retained) rather than
// network.Never (discarded at enqueue).
type Snapshot struct {
	validators int
	slot       types.Slot
	nodes      []*beacon.Node
	dutyView   []int
	embargoes  []embargo
	oracle     *blocktree.Tree
	net        *network.Network[Message]
	// adversary is the adversary's type and walked state (view);
	// empty when it does not walk.
	adversary string
	bytes     int64
}

// Bytes estimates the snapshot's retained heap footprint: block-tree,
// fork-choice and attestation-pool columns (from their capacities, via
// their Stats and Bytes), one validator registry per view, and the held
// network messages. The warm-start scheduler reports the fork copies it
// holds at once by this figure (engine.WarmMeta.PeakResidentBytes).
func (sn *Snapshot) Bytes() int64 { return sn.bytes }

// Per-entry estimates for the snapshot components that do not expose an
// exact byte count: one validator registry row is three 8-byte columns and
// a status byte, and a held network message is a Message value in its
// inbox list.
const (
	registryRowBytes = 25
	heldMessageBytes = int64(unsafe.Sizeof(Message{}))
)

// snapshotBytes sums the footprint of the cloned state.
func snapshotBytes(sn *Snapshot) int64 {
	var total int64
	for _, n := range sn.nodes {
		total += int64(n.Tree.Stats().Bytes)
		if pa, ok := n.Votes.(*forkchoice.ProtoArray); ok {
			total += int64(pa.Stats().Bytes)
		}
		total += int64(n.Pool.Bytes())
		total += registryRowBytes * int64(n.Registry.Len())
	}
	total += int64(sn.oracle.Stats().Bytes)
	// Network endpoints are cohort views, one inbox per materialized view.
	for endpoint := range sn.nodes {
		total += heldMessageBytes * int64(sn.net.PendingFor(network.NodeID(endpoint)))
	}
	return total
}

// view lists the simulation's movable state over its own storage: a
// Snapshot that shares every view, the network, the oracle and the columns
// with the simulation. It carries the adversary's state, encoded through
// the simulation's coder storage: the adversary's type, then its walk
// (empty when the adversary does not walk). It is the one list of that
// state: Snapshot clones it, WriteTo encodes it, and Load decodes a frame
// into it.
func (s *Simulation) view() *Snapshot {
	sn := &Snapshot{
		validators: s.Cfg.Validators,
		slot:       s.slot,
		nodes:      make([]*beacon.Node, len(s.cohorts)),
		dutyView:   s.dutyView,
		embargoes:  s.embargoes,
		oracle:     s.oracle,
		net:        s.Net,
	}
	for i, c := range s.cohorts {
		sn.nodes[i] = c.Node
	}
	if w, ok := s.Cfg.Adversary.(walker); ok {
		ac, name := &s.advCoder, reflect.TypeOf(w).String()
		ac.buf.Reset()
		ac.c.ResetEncoder(&ac.buf)
		ac.c.String(&name)
		w.Walk(&ac.c)
		sn.adversary = ac.buf.String()
	}
	return sn
}

// Snapshot captures the simulation's current state. The cost is one deep
// copy of every cohort view plus the undelivered messages — flat column
// copies throughout (registry, proto-array, tree nodes), no per-validator
// map rehashing.
func (s *Simulation) Snapshot() *Snapshot { return s.view().clone() }

// WriteTo writes the frame Snapshot().WriteTo would write, encoded
// straight off the simulation's own state, with no copy of it. Writing moves
// no state. Implements io.WriterTo.
func (s *Simulation) WriteTo(dst io.Writer) (int64, error) { return s.view().WriteTo(dst) }

// clone deep-copies the snapshot; the adversary's state is an immutable
// string, and shared.
func (sn *Snapshot) clone() *Snapshot {
	out := &Snapshot{
		validators: sn.validators,
		slot:       sn.slot,
		nodes:      make([]*beacon.Node, len(sn.nodes)),
		dutyView:   append([]int(nil), sn.dutyView...),
		embargoes:  append([]embargo(nil), sn.embargoes...),
		oracle:     sn.oracle.Clone(),
		net:        sn.net.Clone(),
		adversary:  sn.adversary,
	}
	for i, n := range sn.nodes {
		out.nodes[i] = n.Clone()
	}
	out.bytes = snapshotBytes(out)
	return out
}

// errAdopted refuses a snapshot whose state Adopt moved out.
var errAdopted = fmt.Errorf("%w: snapshot already adopted", ErrBadConfig)

// Restore rewinds (or fast-forwards) the simulation to the snapshot's
// state. The snapshot must come from a simulation with the same Config —
// same validator set, cohort layout, spec, and seed — except for GST,
// which may differ: held cross-partition traffic is retargeted onto this
// simulation's own heal slot, the warm-start path that lets one shared
// prefix (snapshotted under network.FarFuture) fan out across a gst
// sweep's cells. The snapshot itself is not consumed: a clone of its state
// is installed, so it can be restored again. A snapshot that does not fit
// (fit) is refused before any of the simulation but its adversary is
// touched.
func (s *Simulation) Restore(sn *Snapshot) error {
	if sn.nodes == nil {
		return errAdopted
	}
	return s.install(sn.clone(), "restored")
}

// Adopt is Restore without the defensive deep copy: the snapshot's state
// is moved into the simulation and the snapshot is consumed (poisoned —
// any later Restore, Adopt or WriteTo of it fails: it holds no views, so it
// fits no simulation). Use it only for a snapshot nothing else will read: a
// fork's copy of a sweep spine (internal/engine). The resulting state is
// identical to Restore's, so adopting versus restoring can never change a
// run's results — it only skips cloning state that would be garbage the
// moment it was copied.
func (s *Simulation) Adopt(sn *Snapshot) error {
	if err := s.install(sn, "adopted"); err != nil {
		return err
	}
	sn.nodes, sn.net, sn.oracle, sn.dutyView, sn.embargoes = nil, nil, nil, nil, nil
	return nil
}

// install makes the snapshot's storage the simulation's, once it fits
// (fit): its views, network — retargeted onto the simulation's heal slot —
// oracle, columns and slot.
func (s *Simulation) install(sn *Snapshot, verb string) error {
	if err := s.fit(sn, verb); err != nil {
		return err
	}
	for i, c := range s.cohorts {
		c.Node = sn.nodes[i]
	}
	s.Net = sn.net
	s.Net.RetargetGST(s.Cfg.GST)
	s.oracle = sn.oracle
	s.dutyView = sn.dutyView
	s.embargoes = sn.embargoes
	s.slot = sn.slot
	// The duty roster caches (epoch, seed, shuffling)-derived state; the
	// installed epoch may differ, so force a rebuild. The sent-list cache
	// may stay: attest re-sends a list only when its members are equal.
	s.dutyRosterSet = false
	return nil
}

// adversaryCoder is the storage through which a simulation moves its
// adversary's state in and out of snapshots, kept so that a copy builds no
// codec.Coder (and its chunk) to move a few bytes.
type adversaryCoder struct {
	c   codec.Coder
	buf bytes.Buffer
	src strings.Reader
}

// fit refuses a snapshot that does not fit the simulation: one of another
// validator count or cohort layout, adversary state of another type than
// the simulation's adversary, state it cannot take (it has no walk), and no
// state where it walks are ErrBadConfig. It then decodes the state into
// that adversary, refusing with ErrSnapshotCodec state its walk cannot read
// (which may leave the adversary partly written) — a count of replayed work
// above one per honest validator per epoch before the snapshot's slot
// among it, unreplayed. An honest validator acting from no view, as only a
// Byzantine one does, is ErrSnapshotCodec.
func (s *Simulation) fit(sn *Snapshot, verb string) error {
	if sn.validators != s.Cfg.Validators || len(sn.nodes) != len(s.cohorts) {
		return fmt.Errorf("%w: snapshot of %d validators / %d cohorts %s into %d / %d",
			ErrBadConfig, sn.validators, len(sn.nodes), verb, s.Cfg.Validators, len(s.cohorts))
	}
	for _, v := range s.honest {
		if sn.dutyView[v] == len(sn.nodes) {
			return fmt.Errorf("%w: honest validator %d acts from no view", ErrSnapshotCodec, v)
		}
	}
	w, ok := s.Cfg.Adversary.(walker)
	if !ok && sn.adversary == "" {
		return nil
	}
	ac, name := &s.advCoder, ""
	ac.src.Reset(sn.adversary)
	c := &ac.c
	c.ResetDecoder(&ac.src)
	if c.String(&name); !ok || name != reflect.TypeOf(w).String() {
		return fmt.Errorf("%w: adversary state of type %q %s under an adversary of type %T", ErrBadConfig, name, verb, s.Cfg.Adversary)
	}
	c.Bound(uint64(len(s.honest)) * uint64(sn.slot.Epoch()))
	if w.Walk(c); c.Err() != nil {
		return fmt.Errorf("%w: adversary state: %v", ErrSnapshotCodec, c.Err())
	}
	return nil
}

// SetGST rebases a running simulation onto a new heal slot: the network's
// held cross-partition traffic moves with it (network.RetargetGST), and
// all future reachability and compaction decisions use the new GST.
// Equivalent to restoring a snapshot of this state into a simulation
// configured with the new GST — the warm-start path uses it to hand a
// spine's still-live FarFuture simulation directly to a resuming cell.
func (s *Simulation) SetGST(gst types.Slot) {
	s.Cfg.GST = gst
	s.Net.RetargetGST(gst)
	s.dutyRosterSet = false
}
