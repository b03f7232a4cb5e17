// Package sim drives full-protocol simulations at paper scale. The kernel
// is view-cohort structured: instead of one beacon node per validator, the
// simulator materializes one beacon.Node per *cohort* — a set of validators
// that provably hold identical views. Honest validators sharing a pre-GST
// partition (and the global delay class) form one cohort; all Byzantine
// validators, who bridge every partition and hear everything, form another.
// Attestations are produced once per cohort per duty slot and delivered as
// batches, so a slot costs O(cohorts^2 + validators) instead of
// O(validators^2), which is what lets the full protocol run at hundreds of
// thousands of validators. A Message is a value held inline in the
// network's recycled inbox lists, and a batch re-sends the validator list it
// sent the epoch before, so a steady epoch allocates nothing.
//
// Two per-validator effects survive cohorting and are modeled explicitly:
//
//   - a proposer applies its own block immediately but the rest of its
//     cohort only sees it one network delay later; the kernel applies the
//     block to the shared view at once and embargoes it — head computations
//     for other members skip embargoed blocks until their broadcast copy
//     arrives (beacon.Node.SetHidden / forkchoice.HeadFiltered);
//   - an adversary with within-delta timing power can place individual
//     honest validators on different views (the probabilistic bouncing
//     attack); SetDutyView reassigns which cohort view a validator performs
//     its duties from, per epoch, without moving it between network
//     partitions.
//
// The package's tests also build the pre-refactor simulator — one
// singleton cohort per validator, optionally on the map-based reference
// fork choice of internal/refmodel — through an unexported Config field,
// and assert bit-identical EpochMetrics histories against it (including
// the link-outage drop schedule). No caller outside the package can select
// it.
//
// The engine is slot-driven. Each slot it (1) delivers network messages,
// (2) runs epoch-boundary processing on every cohort at epoch starts,
// (3) gives the adversary its turn, (4) lets the slot's honest proposer
// extend its cohort's head, and (5) batches the attestations of honest
// validators with this slot's duty, one batch per (duty view, home cohort).
//
// It steps lanes (lanes.go). A lane is the cohorts of one honest partition
// when the partitions cannot hear each other for a whole epoch — no
// adversary, no bridging Byzantine cohort, the epoch ending before GST — and
// nothing wants every view between two slots (no OnEpoch hook), in a run of
// at least laneValidators validators on two or more processors; otherwise
// one lane holds every cohort. RunEpochs steps such an epoch's lanes at
// once, each on its own goroutine, and joins them once. What a lane sends
// to another is held for the heal anyway, so the join delivers it in the
// order one lane would have sent it, and the run is byte for byte the one
// stepped as one lane.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/attestation"
	"repro/internal/beacon"
	"repro/internal/blocktree"
	"repro/internal/codec"
	"repro/internal/ffg"
	"repro/internal/forkchoice"
	"repro/internal/network"
	"repro/internal/types"
	"repro/internal/validator"
)

// AttBatch carries one attestation data value cast by many validators — the
// wire form of a cohort's duty slot. Receivers process it as one
// attestation per listed validator, in listed order. The list is shared and
// immutable once sent: the network, its clones and every snapshot hold it,
// and nothing writes into it.
type AttBatch struct {
	Data       attestation.Data
	Validators []types.ValidatorIndex
}

// MessageKind says what a Message carries. It is also the message's tag in
// snapshot frames.
type MessageKind uint8

const (
	// BlockMessage carries Block. The zero MessageKind, a zero Message's,
	// is no message at all: receivers ignore it.
	BlockMessage MessageKind = iota + 1
	// AttestationMessage carries one validator's vote: Batch lists exactly
	// that validator.
	AttestationMessage
	// BatchMessage carries Batch.
	BatchMessage
)

// Message is the wire format, a value: the network's inbox lists hold it
// inline, so a send allocates nothing. Kind says which payload is set.
type Message struct {
	Kind MessageKind
	// omit, when nonzero, is one plus the position in Batch.Validators of
	// the one listed validator a BatchMessage leaves out: a bucket whose
	// proposer attests alone, on its newer view, re-sends the list it sent
	// before instead of a copy less that member. Receivers and the codec
	// see the list without it.
	//gasper:nocodec the encoder writes the batch without the omitted member; a decoded batch lists exactly its voters
	omit  int32
	Block blocktree.Block
	Batch AttBatch
}

// voters returns the validators a vote message casts for, in listed order:
// Batch.Validators, or, when a member is omitted, the others copied into
// scratch.
func (m *Message) voters(scratch *[]types.ValidatorIndex) []types.ValidatorIndex {
	vs := m.Batch.Validators
	if m.omit == 0 {
		return vs
	}
	k := int(m.omit) - 1
	*scratch = append(append((*scratch)[:0], vs[:k]...), vs[k+1:]...)
	return *scratch
}

// Adversary coordinates the Byzantine validators. OnSlot runs every slot
// (after boundary processing, before honest duties) with full access to the
// simulation — global knowledge, per the strong-adversary model.
type Adversary interface {
	OnSlot(s *Simulation, slot types.Slot)
}

// walker is an Adversary whose state a Snapshot carries. Walk moves that
// state, and only that: the configuration the adversary was built with is
// the simulation's own, as the spec and the partition are, so a walk
// decodes into an adversary the restored simulation's Config already holds.
// A count of work the state replays is moved with codec.Coder.Bounded,
// which a decode bounds by one per honest validator per simulated epoch.
type walker interface {
	Walk(c *codec.Coder)
}

// Config parameterizes a simulation run.
type Config struct {
	// Validators is the total validator count (honest + Byzantine).
	Validators int
	// Spec holds protocol constants; use types.CompressedSpec to shorten
	// leak time scales in tests.
	Spec types.Spec
	// Byzantine lists adversary-controlled validators. They bridge
	// network partitions and perform no honest duties. Duplicate indices
	// are rejected.
	Byzantine []types.ValidatorIndex
	// PartitionOf assigns each validator a partition id (pre-GST). Nil
	// means a single partition.
	PartitionOf func(types.ValidatorIndex) int
	// GST is the slot at which partitions heal.
	GST types.Slot
	// Delay is the in-partition message delay in slots (>= 1).
	Delay types.Slot
	// DropRate injects link outages between distinct partitions; dropped
	// deliveries are retransmitted with extra delay (see
	// internal/network).
	DropRate float64
	// Seed drives every pseudo-random choice (proposer schedule, link
	// outages).
	Seed int64
	// ShuffledDuties re-assigns attestation duty slots pseudo-randomly
	// every epoch (as the spec's committee shuffling does) instead of
	// the fixed v-mod-32 assignment. The bouncing analysis assumes
	// per-epoch random placement, which shuffling provides natively.
	ShuffledDuties bool
	// Adversary, if non-nil, receives an OnSlot call every slot. If it has
	// a Walk(*codec.Coder) method, its state rides in every Snapshot.
	Adversary Adversary
	// OnEpoch, if non-nil, is called after boundary processing of each
	// new epoch.
	OnEpoch func(s *Simulation, epoch types.Epoch)
	// CompactWatermark controls cold-spine compaction of block trees
	// during long finality stalls (blocktree.Compact). When a view's tree
	// reaches the watermark node count at an epoch boundary, the unbranched
	// spine older than an 8-epoch retention window is folded into skip
	// segments, keeping fork-choice and memory cost flat at arbitrary leak
	// depth. 0 means the default watermark (1024 nodes); < 0 disables
	// compaction entirely; > 0 sets an explicit watermark. Compaction is
	// behavior-neutral and automatically held off in configurations where
	// in-flight or adversary-held messages could reference arbitrarily old
	// roots (custom Adversary, lossy links, finite GST still in its
	// settling window).
	CompactWatermark int

	// reference selects the reference implementations the kernel is held
	// bit-identical to. Only this package's tests set it (export_test.go);
	// the zero value is the simulator every caller gets.
	reference reference
}

// reference is the pre-refactor simulator the equivalence tests compare
// the kernel with, along either or both of two axes.
type reference struct {
	// singletons gives every validator its own cohort: the one-node-per-
	// validator layout, O(validators^2) per slot. The equivalence contract
	// covers every run that does not reassign duty views: SetDutyView is a
	// cohort-native primitive (the Bouncer's placement step), and under
	// singleton cohorts it models the adversary differently.
	singletons bool
	// engine, if non-nil, builds every view's fork choice in place of
	// a forkchoice.ProtoArray.
	engine func() forkchoice.Engine
	// laneMin, if nonzero, replaces laneValidators, the validator count
	// from which an epoch steps lane by lane: 1 takes lanes at any size
	// where they apply, and a count above the run's keeps one lane.
	laneMin int
}

// Compaction tuning: the default node-count watermark at which a view's
// tree folds its cold spine, and the retention window (in epochs) below
// which blocks are never folded — wide enough to cover every in-flight
// message age under the gates compaction enforces, and aligned with the
// attestation pool's own 8-epoch pruning horizon.
const (
	defaultCompactWatermark = 1024
	compactWindowEpochs     = 8
)

// embargo records a block a cohort member produced and self-applied, whose
// broadcast copy has not yet reached the rest of the cohort: until `until`,
// head computations for members other than the producer skip it.
type embargo struct {
	cohort   int
	producer types.ValidatorIndex
	root     types.Root
	until    types.Slot
}

// Simulation is a running instance. Construct with New.
type Simulation struct {
	Cfg Config
	Net *network.Network[Message]

	cohorts   []*Cohort
	cohortOf  []int // validator -> home cohort (network routing)
	dutyView  []int // validator -> cohort whose view it acts from
	honest    []types.ValidatorIndex
	byzantine map[types.ValidatorIndex]bool
	embargoes []embargo
	// dutyRoster caches one epoch's attestation duties: dutyRoster[off]
	// lists the honest validators whose duty falls on the epoch's off-th
	// slot, ascending. Built once per epoch under ShuffledDuties and once
	// for all epochs otherwise, instead of scanning every honest validator
	// every slot.
	dutyRoster      [][]types.ValidatorIndex
	dutyRosterEpoch types.Epoch
	dutyRosterSet   bool
	// dutyBuckets is buildBuckets' scratch: a slot's attesters grouped by
	// (duty view, home cohort). Cleared and refilled every build, bucket
	// member slices included; nothing in it outlives the build.
	//gasper:nocodec per-build scratch; a snapshot is taken between slots, when it holds nothing
	//gasper:shallow per-build scratch; every simulation refills its own
	dutyBuckets []dutyBucket
	// slotBuckets[off] holds, once bucketsBuilt[off], the buckets of an
	// epoch's off-th slot in the order attest sends them, each with the list
	// it sends (sentLists[off][j]) as its members. They depend only on the
	// roster and the duty views, so a roster rebuild and a moved duty view
	// clear bucketsBuilt, and a build or Reset rebuilds the roster.
	//gasper:nocodec derived from the roster and the duty views; a simulation without it rebuilds it
	//gasper:shallow derived from the roster and the duty views; a simulation without it rebuilds it
	slotBuckets [][]dutyBucket
	//gasper:nocodec derived from the roster and the duty views; a simulation without it rebuilds it
	//gasper:shallow derived from the roster and the duty views; a simulation without it rebuilds it
	bucketsBuilt []bool
	//gasper:nocodec a count of work done, not simulation state
	//gasper:shallow a count of work done; every simulation counts its own
	bucketRebuilds int
	// sentLists[off][j] is the validator list attest last broadcast for the
	// j-th bucket of an epoch's off-th slot, so that a bucket whose members
	// are unchanged since then (every bucket, with unshuffled duties and
	// fixed duty views) sends that list again instead of a copy. The network
	// and every snapshot clone share a sent list as immutable: an entry is
	// replaced, never written into.
	//gasper:nocodec a cache of lists already sent; a simulation without it sends equal lists of its own
	//gasper:shallow a cache of lists already sent; a simulation without it sends equal lists of its own
	sentLists [][][]types.ValidatorIndex
	// lanes is the storage of the lanes that step the simulation, empty
	// between steps; laneEpochs counts the epochs stepped with two or more
	// of them.
	//gasper:nocodec lane storage, empty between steps: the embargoes are back in embargoes and the outboxes delivered
	//gasper:shallow lane storage; every simulation steps its own
	lanes *laneSet
	//gasper:nocodec a count of work done, not simulation state
	//gasper:shallow a count of work done; every simulation counts its own
	laneEpochs int
	// advCoder moves the adversary's state in and out of snapshots.
	//gasper:nocodec coder storage, holds nothing between snapshots
	//gasper:shallow coder storage; every simulation keeps its own
	advCoder *adversaryCoder
	// oracle is an omniscient block tree used only for Safety auditing.
	oracle *blocktree.Tree
	slot   types.Slot
}

// ErrBadConfig reports an invalid configuration.
var ErrBadConfig = errors.New("sim: invalid config")

// New builds the simulation: cohorts, views, network.
func New(cfg Config) (*Simulation, error) {
	return build(new(Simulation), cfg, false)
}

// Reset rebuilds the simulation at genesis as New(cfg) would — the same
// state, the same run from there — in the storage it already holds: its
// views are reset in place (beacon.Node.Reset), its cohort and roster
// storage is refilled, its network keeps every inbox list
// (network.Network.Reset), and the lists it last sent stay cached for
// sending again (they are immutable). A run over as many validators as the last
// one therefore builds no per-validator state. Only a simulation that
// nothing else holds may be reset: one lent to another goroutine, or whose
// cohorts or views a caller kept, is not. A Snapshot taken of it shares
// nothing that Reset writes into. On error the simulation is unusable.
func (s *Simulation) Reset(cfg Config) error {
	_, err := build(s, cfg, false)
	return err
}

// NewShell builds a simulation whose cohort views are left unmaterialized:
// configuration is validated and the cohort/network layout wired exactly as
// New does, but the per-cohort beacon.Node construction — the dominant
// constructor cost at paper scale (registry, proto-array columns, pool,
// all sized to the validator count) — is skipped, because a Restore or
// Adopt would discard it wholesale. The returned simulation MUST be given
// state via Restore or Adopt before it is stepped; the warm-start resume
// path is the intended caller.
func NewShell(cfg Config) (*Simulation, error) {
	return build(new(Simulation), cfg, true)
}

// Load makes the simulation the one NewShell(cfg) followed by the Adopt of
// ReadSnapshot(src) gives — the same state, the same run from there — in
// the storage it already holds: the frame is decoded straight into its
// views, oracle tree, network and columns, each emptied first as Reset
// empties it, so a simulation that last ran as many validators allocates
// little beyond what the frame holds past it. The frame walk and the fit
// to cfg are ReadSnapshot's and Adopt's. Only a simulation that nothing
// else holds may be loaded. On error (ErrBadConfig, or ErrSnapshotCodec
// for a damaged frame) the simulation is unusable until Reset or another
// Load.
func (s *Simulation) Load(cfg Config, src io.Reader) error {
	if _, err := build(s, cfg, true); err != nil {
		return err
	}
	sn := Snapshot{
		nodes:     make([]*beacon.Node, len(s.cohorts)),
		dutyView:  s.dutyView,
		embargoes: s.embargoes,
		oracle:    s.oracle,
		net:       s.Net,
	}
	for i, c := range s.cohorts {
		sn.nodes[i] = c.Node
	}
	if err := sn.read(src); err != nil {
		return err
	}
	return s.Adopt(&sn)
}

// build configures s as a simulation of cfg at genesis, reusing whatever
// storage s holds, and returns it.
func build(s *Simulation, cfg Config, shell bool) (*Simulation, error) {
	if cfg.Validators <= 0 {
		return nil, fmt.Errorf("%w: validators = %d", ErrBadConfig, cfg.Validators)
	}
	if cfg.Spec.SlotsPerEpoch == 0 {
		return nil, fmt.Errorf("%w: zero spec", ErrBadConfig)
	}
	if cfg.Delay == 0 {
		return nil, fmt.Errorf("%w: delay must be >= 1 slot (same-slot delivery would race the slot's already-drained inbox)", ErrBadConfig)
	}
	byzantine := s.byzantine
	if byzantine == nil {
		byzantine = make(map[types.ValidatorIndex]bool, len(cfg.Byzantine))
	}
	clear(byzantine)
	for _, b := range cfg.Byzantine {
		if int(b) >= cfg.Validators {
			return nil, fmt.Errorf("%w: byzantine index %d out of range", ErrBadConfig, b)
		}
		if byzantine[b] {
			return nil, fmt.Errorf("%w: duplicate byzantine index %d", ErrBadConfig, b)
		}
		byzantine[b] = true
	}
	// Honest partition ids must be non-negative: negative ids would
	// collide with the Byzantine cohort's internal partition sentinel and
	// silently merge views.
	partitions := map[int]bool{}
	for i := 0; i < cfg.Validators; i++ {
		v := types.ValidatorIndex(i)
		if byzantine[v] {
			continue
		}
		p := 0
		if cfg.PartitionOf != nil {
			p = cfg.PartitionOf(v)
		}
		if p < 0 {
			return nil, fmt.Errorf("%w: partition id %d for validator %d (ids must be >= 0)", ErrBadConfig, p, v)
		}
		partitions[p] = true
	}
	if cfg.DropRate < 0 || cfg.DropRate > 1 {
		return nil, fmt.Errorf("%w: drop rate %v outside [0, 1]", ErrBadConfig, cfg.DropRate)
	}
	// Drops are link outages BETWEEN partitions (members of one partition
	// share a view; there is no lossy link inside it), so a drop rate on
	// a single-partition population would silently inject no loss at all.
	// Reject the combination instead of measuring a lossless baseline.
	if cfg.DropRate > 0 && len(partitions) < 2 {
		return nil, fmt.Errorf("%w: drop rate %v needs >= 2 partitions (losses are cross-partition link outages; a single partition has no lossy links)", ErrBadConfig, cfg.DropRate)
	}

	genesis := types.RootFromUint64(0)
	old := *s
	if old.oracle == nil {
		old.oracle = new(blocktree.Tree)
	}
	old.oracle.Reset(genesis)
	// A view reset in place keeps its fork-choice engine, so views are not
	// carried across a change of engine kind.
	if (old.Cfg.reference.engine == nil) != (cfg.reference.engine == nil) {
		old.cohorts = nil
	}
	*s = Simulation{
		Cfg:       cfg,
		byzantine: byzantine,
		embargoes: old.embargoes[:0],
		// Storage every run refills. A sent list is immutable, so a reset
		// run re-sends the lists its buckets still match.
		dutyRoster:   old.dutyRoster,
		dutyBuckets:  old.dutyBuckets,
		slotBuckets:  old.slotBuckets,
		bucketsBuilt: old.bucketsBuilt,
		sentLists:    old.sentLists,
		lanes:        old.lanes,
		advCoder:     old.advCoder,
		oracle:       old.oracle,
	}
	s.cohorts, s.cohortOf = buildCohorts(cfg, byzantine, genesis, shell, old.cohorts, old.cohortOf)
	if s.lanes == nil {
		s.lanes = new(laneSet)
	}
	s.lanes.layout(s.cohorts, len(byzantine) == 0 && len(partitions) > 1)
	s.Net = wireNetwork(cfg, s.cohorts, old.Net)
	s.dutyView = old.dutyView[:0]
	if !shell { // a shell takes its duty views from the snapshot it is given
		s.dutyView = append(s.dutyView, s.cohortOf...)
	}
	s.honest = slices.Grow(old.honest[:0], cfg.Validators-len(byzantine))
	for i := 0; i < cfg.Validators; i++ {
		if v := types.ValidatorIndex(i); !byzantine[v] {
			s.honest = append(s.honest, v)
		}
	}
	return s, nil
}

// Slot returns the next slot to execute.
func (s *Simulation) Slot() types.Slot { return s.slot }

// HonestIndices returns all honest validator indices in ascending order.
// The slice is computed once at construction and shared; callers must not
// mutate it.
func (s *Simulation) HonestIndices() []types.ValidatorIndex { return s.honest }

// Cohorts returns the cohort list in construction order (honest cohorts by
// first partition appearance, the Byzantine cohort where its first member
// falls). Callers must not mutate it.
func (s *Simulation) Cohorts() []*Cohort { return s.cohorts }

// View returns the materialized view validator v currently performs its
// duties from — its home cohort's node unless SetDutyView reassigned it.
func (s *Simulation) View(v types.ValidatorIndex) *beacon.Node {
	return s.cohorts[s.dutyView[v]].Node
}

// HomeView returns the materialized view of validator v's home cohort,
// whichever view SetDutyView has it act from.
func (s *Simulation) HomeView(v types.ValidatorIndex) *beacon.Node {
	return s.cohorts[s.cohortOf[v]].Node
}

// SetDutyView makes validator v perform its duties (attestations,
// proposals) from the home-cohort view of validator `like`, modeling an
// adversary whose within-delta message timing decides which view a
// validator acts on (the bouncing attack's placement step). Network routing
// and metrics attribution stay with v's home cohort. This is a cohort-mode
// primitive: in the tests' one-view-per-validator reference the "view of
// like's cohort" is like's own node, a different (coarser) adversary model,
// so runs using it are outside the cohort-vs-reference equivalence
// contract.
func (s *Simulation) SetDutyView(v, like types.ValidatorIndex) {
	if view := s.cohortOf[like]; s.dutyView[v] != view {
		s.dutyView[v] = view
		clear(s.bucketsBuilt)
	}
}

// ProposerAt returns the proposer of a slot: a seeded hash over the full
// initial validator set, identical on every view.
func (s *Simulation) ProposerAt(slot types.Slot) types.ValidatorIndex {
	h := types.HashItems(uint64(slot), uint64(s.Cfg.Seed), 0x9e3779b9)
	v := uint64(h[0])<<24 | uint64(h[1])<<16 | uint64(h[2])<<8 | uint64(h[3])
	return types.ValidatorIndex(v % uint64(s.Cfg.Validators))
}

// AttestationSlot returns the slot within epoch at which validator v
// performs its once-per-epoch attestation duty. With ShuffledDuties the
// assignment changes pseudo-randomly every epoch; otherwise it is the fixed
// v-mod-SlotsPerEpoch slot.
func (s *Simulation) AttestationSlot(v types.ValidatorIndex, epoch types.Epoch) types.Slot {
	if s.Cfg.ShuffledDuties {
		h := types.HashItems(uint64(v), uint64(epoch), uint64(s.Cfg.Seed), 0x5bd1e995)
		off := (uint64(h[0])<<8 | uint64(h[1])) % s.Cfg.Spec.SlotsPerEpoch
		return epoch.StartSlot() + types.Slot(off)
	}
	return epoch.StartSlot() + types.Slot(uint64(v)%s.Cfg.Spec.SlotsPerEpoch)
}

// Broadcast sends a message from a validator (routed via its home cohort)
// and records blocks in the Safety oracle.
func (s *Simulation) Broadcast(from types.ValidatorIndex, at types.Slot, m Message) {
	s.recordOracle(&m)
	s.Net.Broadcast(network.NodeID(s.cohortOf[from]), at, m)
}

// BroadcastAs sends a message routed as if the sender belonged to the given
// partition — the Byzantine one-face-per-partition primitive.
func (s *Simulation) BroadcastAs(from types.ValidatorIndex, partition int, at types.Slot, m Message) {
	s.recordOracle(&m)
	s.Net.BroadcastAs(network.NodeID(s.cohortOf[from]), partition, at, m)
}

func (s *Simulation) recordOracle(m *Message) {
	if m.Kind == BlockMessage && !s.oracle.Has(m.Block.Root) {
		_ = s.oracle.Add(m.Block)
	}
}

// Step executes one slot, as one lane.
func (s *Simulation) Step() error {
	slot, solo := s.slot, s.lanes.solo[:]
	s.split(solo)
	err := s.receive(&solo[0], slot)
	if s.join(solo); err != nil {
		return err
	}
	if slot.IsEpochStart() && slot > 0 {
		s.compactOracle(slot.Epoch())
		if s.Cfg.OnEpoch != nil {
			s.Cfg.OnEpoch(s, slot.Epoch())
		}
	}
	// The strong adversary can always schedule its messages ahead of
	// honest actions in a slot.
	if s.Cfg.Adversary != nil {
		s.Cfg.Adversary.OnSlot(s, slot)
	}
	s.split(solo)
	s.act(&solo[0], slot)
	s.join(solo)
	s.slot++
	return nil
}

// receive is the first half of a lane's slot: embargoes whose copies arrive
// expire, the lane's endpoints drain (one drain per cohort endpoint), and at
// an epoch start its views process the boundary and then compact. A
// singleton cohort processes as its only member (seeing its own in-flight
// blocks, as the pre-refactor per-validator node did); a shared view
// processes with in-flight blocks hidden — the boundary outcome is
// identical either way for sane delays, because an in-flight tip block is
// never the ended epoch's checkpoint.
func (s *Simulation) receive(l *lane, slot types.Slot) error {
	l.expireEmbargoes(slot)
	for _, c := range l.cohorts {
		msgs := s.Net.Deliveries(network.NodeID(c.Index), slot)
		for i := range msgs {
			c.deliver(&msgs[i])
		}
	}
	if !slot.IsEpochStart() || slot == 0 {
		return nil
	}
	for _, c := range l.cohorts {
		if len(c.Members) == 1 {
			c.Node.SetHidden(l.hiddenFor(c.Index, c.Members[0], true))
		} else {
			c.Node.SetHidden(l.hiddenFor(c.Index, 0, false))
		}
		_, err := c.Node.ProcessEpochBoundary(slot.Epoch())
		c.Node.SetHidden(nil)
		if err != nil {
			return fmt.Errorf("sim: slot %d: %w", slot, err)
		}
	}
	if olderThan, wm, ok := s.compaction(slot.Epoch()); ok {
		for _, c := range l.cohorts {
			if c.Node.Tree.Len() >= wm {
				c.Node.CompactTree(olderThan)
			}
		}
	}
	return nil
}

// act is the second half of a lane's slot, after the adversary's turn.
//
// The honest proposer produces from its duty view. Within its own cohort
// the proposer holds the block at once, so it is applied immediately and
// embargoed for the other members until the broadcast copy lands — which is
// provably slot+Delay, since the sender shares the receivers' partition. A
// proposer reassigned to a foreign duty view (SetDutyView) broadcasts from
// its home partition, whose delivery into the duty cohort may be slower
// (link outage, pre-GST hold), so no early application is justified there:
// the duty cohort receives the block like every other endpoint.
//
// Then the honest attesters: one batch per (duty view, home cohort) bucket,
// computed once from the shared view; members with their own block still
// in flight (the slot's proposer) attest individually on their slightly
// newer view.
func (s *Simulation) act(l *lane, slot types.Slot) {
	if p := s.ProposerAt(slot); !s.byzantine[p] && slot > 0 && s.holds(l, s.dutyView[p]) {
		ci := s.dutyView[p]
		node := s.cohorts[ci].Node
		node.SetHidden(l.hiddenFor(ci, p, true))
		b, err := node.ProduceBlockFor(slot, p)
		node.SetHidden(nil)
		if err == nil {
			if ci == s.cohortOf[p] {
				node.ReceiveBlock(b)
				l.embargoes = append(l.embargoes, embargo{
					cohort: ci, producer: p, root: b.Root, until: slot + s.Cfg.Delay,
				})
			}
			s.send(l, p, slot, 0, Message{Kind: BlockMessage, Block: b})
		}
	}
	s.attest(l, slot)
}

// dutyBucket groups a slot's attesters acting from one view and routed via
// one home cohort.
type dutyBucket struct {
	view, home int
	members    []types.ValidatorIndex
}

// dutyRosterFor returns the cached duty roster of the epoch, rebuilding it
// on epoch change when duties are shuffled. The roster depends only on
// (epoch, seed, shuffling), so one O(validators) pass serves the epoch's 32
// slot scans — and, unshuffled, every epoch's: the fixed assignment puts v
// on offset v mod SlotsPerEpoch whatever the epoch.
func (s *Simulation) dutyRosterFor(epoch types.Epoch) [][]types.ValidatorIndex {
	if s.dutyRosterSet && (s.dutyRosterEpoch == epoch || !s.Cfg.ShuffledDuties) {
		return s.dutyRoster
	}
	// Consumption indexes by slot.PositionInEpoch() (the global
	// types.SlotsPerEpoch grid); production offsets come from
	// AttestationSlot, which spreads duties over the spec's own epoch
	// length. Size for both so a spec that differs from the global
	// constant neither panics on build nor on lookup — offsets beyond
	// the consumable window simply stay unread, exactly as the old
	// per-slot scan never matched them.
	if n := max(uint64(types.SlotsPerEpoch), s.Cfg.Spec.SlotsPerEpoch); uint64(len(s.dutyRoster)) != n {
		s.dutyRoster = make([][]types.ValidatorIndex, n)
	}
	for i := range s.dutyRoster {
		s.dutyRoster[i] = s.dutyRoster[i][:0]
	}
	if len(s.bucketsBuilt) != len(s.dutyRoster) {
		s.slotBuckets = make([][]dutyBucket, len(s.dutyRoster))
		s.bucketsBuilt = make([]bool, len(s.dutyRoster))
	}
	clear(s.bucketsBuilt)
	start := epoch.StartSlot()
	for _, v := range s.honest {
		off := s.AttestationSlot(v, epoch) - start
		s.dutyRoster[off] = append(s.dutyRoster[off], v)
	}
	s.dutyRosterEpoch = epoch
	s.dutyRosterSet = true
	return s.dutyRoster
}

// batchList returns the list to broadcast for the j-th bucket of an epoch's
// off-th slot: the list sent for that bucket in an earlier epoch when it
// holds the same members, otherwise a copy of members that replaces it.
//
//gasper:noalloc
func (s *Simulation) batchList(off, j int, members []types.ValidatorIndex) []types.ValidatorIndex {
	if s.sentLists == nil {
		s.sentLists = make([][][]types.ValidatorIndex, len(s.dutyRoster)) //gasper:alloc one-time growth: a row per duty offset, on the first list sent
	}
	if row := s.sentLists[off]; j >= len(row) {
		//gasper:alloc one-time growth: the first slot at this offset with j+1 buckets
		s.sentLists[off] = append(row, make([][]types.ValidatorIndex, j+1-len(row))...)
	}
	sent := &s.sentLists[off][j]
	if !slices.Equal(*sent, members) {
		*sent = append([]types.ValidatorIndex(nil), members...) //gasper:alloc miss: the bucket's members changed since its list was last sent
	}
	return *sent
}

// buildBuckets groups the attesters of an epoch's off-th slot by (duty
// view, home cohort), orders the buckets, and files them in slotBuckets[off]
// with the lists they send.
//
//gasper:noalloc
func (s *Simulation) buildBuckets(off int, attesters []types.ValidatorIndex) {
	s.dutyBuckets = s.dutyBuckets[:0]
	for _, v := range attesters {
		view, home := s.dutyView[v], s.cohortOf[v]
		i := 0
		for i < len(s.dutyBuckets) && (s.dutyBuckets[i].view != view || s.dutyBuckets[i].home != home) {
			i++
		}
		if i == len(s.dutyBuckets) {
			// Re-extend over the bucket a previous build left here, if any,
			// to take its member slice's capacity over.
			if i < cap(s.dutyBuckets) {
				s.dutyBuckets = s.dutyBuckets[:i+1]
			} else {
				s.dutyBuckets = append(s.dutyBuckets, dutyBucket{})
			}
			s.dutyBuckets[i] = dutyBucket{view: view, home: home, members: s.dutyBuckets[i].members[:0]}
		}
		s.dutyBuckets[i].members = append(s.dutyBuckets[i].members, v)
	}
	slices.SortFunc(s.dutyBuckets, compareBuckets)
	s.slotBuckets[off] = s.slotBuckets[off][:0]
	for j, b := range s.dutyBuckets {
		// The list the bucket sends: the network and every snapshot clone
		// share it as immutable, and a bucket whose members are unchanged
		// sends the one it sent before.
		b.members = s.batchList(off, j, b.members)
		s.slotBuckets[off] = append(s.slotBuckets[off], b)
	}
	s.bucketsBuilt[off] = true
	s.bucketRebuilds++
}

// attest broadcasts the lane's share of the slot's honest attestations:
// one batch per bucket, and one attestation per member with its own block
// in flight.
//
//gasper:noalloc
func (s *Simulation) attest(l *lane, slot types.Slot) {
	off := int(slot.PositionInEpoch())
	if roster := s.dutyRosterFor(slot.Epoch()); !s.bucketsBuilt[off] {
		s.buildBuckets(off, roster[off])
	}
	for j, b := range s.slotBuckets[off] {
		if !s.holds(l, b.view) {
			continue
		}
		node, list := s.cohorts[b.view].Node, b.members
		// Members with their own block in flight exist only where the view
		// has a live embargo at all; elsewhere no member is looked up.
		hidden := l.hiddenFor(b.view, 0, false)
		var buf [4]int
		owners := buf[:0]
		if len(hidden) > 0 {
			owners = l.appendOwners(owners, b.view, list)
		}
		if len(owners) < len(list) {
			node.SetHidden(hidden)
			d, err := node.AttestationData(slot)
			node.SetHidden(nil)
			if err == nil {
				m := Message{Kind: BatchMessage, Batch: AttBatch{Data: d, Validators: list}}
				switch {
				case len(owners) == 1:
					m.omit = int32(owners[0] + 1)
				case len(owners) > 1:
					// Rare: two members' blocks in flight at once (a delay
					// over one slot). The batch lists the others afresh.
					plain := make([]types.ValidatorIndex, 0, len(list)-len(owners)) //gasper:alloc two members with blocks in flight, only under a delay over one slot
					from := 0
					for _, k := range owners {
						plain = append(plain, list[from:k]...) //gasper:alloc fills the list made above, within its capacity
						from = k + 1
					}
					m.Batch.Validators = append(plain, list[from:]...) //gasper:alloc fills the list made above, within its capacity
				}
				s.send(l, list[0], slot, j+1, m)
			}
		}
		for _, k := range owners {
			v := list[k]
			node.SetHidden(l.hiddenFor(b.view, v, true))
			d, err := node.AttestationData(slot)
			node.SetHidden(nil)
			if err == nil {
				s.send(l, v, slot, j+1, Message{Kind: AttestationMessage, Batch: AttBatch{Data: d, Validators: list[k : k+1 : k+1]}})
			}
		}
	}
}

// compareBuckets orders a slot's buckets by duty view, then home cohort.
func compareBuckets(a, b dutyBucket) int {
	if a.view != b.view {
		return cmp.Compare(a.view, b.view)
	}
	return cmp.Compare(a.home, b.home)
}

// compaction says whether and where the cold unbranched spine folds out of
// the views' block trees (and the safety-audit oracle tree) at the start of
// epoch: below olderThan, in a tree of wm nodes or more — the path that
// keeps per-epoch fork-choice cost flat when a leak stalls finality and
// PruneBelow never fires. Compaction is behavior-neutral only when nothing
// in flight or in an adversary's hand can reference a folded root, so it is
// held off whenever a custom Adversary is installed (the Bouncer pins roots
// captured at GST), links are lossy (retransmission age is unbounded in the
// worst case), or a finite GST's held pre-GST traffic — which can carry
// arbitrarily old branches — has not yet fully drained.
func (s *Simulation) compaction(epoch types.Epoch) (olderThan types.Slot, wm int, ok bool) {
	wm = s.Cfg.CompactWatermark
	if wm == 0 {
		wm = defaultCompactWatermark
	}
	if wm < 0 || s.Cfg.Adversary != nil || s.Cfg.DropRate != 0 || epoch <= compactWindowEpochs ||
		s.Cfg.GST != network.Never && s.slot < s.Cfg.GST+types.Slot(compactWindowEpochs*s.Cfg.Spec.SlotsPerEpoch) {
		return 0, 0, false
	}
	return (epoch - compactWindowEpochs).StartSlot(), wm, true
}

// compactOracle compacts the omniscient audit tree at the start of epoch
// (compaction), pinning every checkpoint root any view can still present to
// CheckFinalitySafety (the audit resolves finalized-checkpoint ancestry
// against this tree). The views' FFG state it reads changes only at
// boundaries, so it may run any time before the epoch's blocks reach the
// oracle.
func (s *Simulation) compactOracle(epoch types.Epoch) {
	olderThan, wm, ok := s.compaction(epoch)
	if !ok || s.oracle.Len() < wm {
		return
	}
	scratch := &s.lanes.solo[0].scratch // no lane steps while compaction runs
	pins := (*scratch)[:0]
	for _, c := range s.cohorts {
		for _, cp := range c.Node.FFG.Justifieds() {
			pins = append(pins, cp.Root)
		}
		pins = append(pins, c.Node.FFG.Finalized().Root, c.Node.FFG.LatestJustified().Root)
	}
	*scratch = pins
	s.oracle.Compact(olderThan, func(r types.Root) bool { return slices.Contains(pins, r) })
}

// Stats aggregates block-tree and fork-choice column retention across all
// materialized views plus the safety-audit oracle tree — the memory half
// of the leak-depth story, surfaced through cmd/leaksim verbose output.
type Stats struct {
	Cohorts int
	Tree    blocktree.Stats  // summed over cohort views
	Oracle  blocktree.Stats  // the omniscient audit tree
	Engine  forkchoice.Stats // summed over proto-array views (zero under the map oracle)
	// Work sums the views' boundary work counters (a restored view counts
	// from the restore); BucketRebuilds counts the slots whose attesters
	// were grouped afresh, and LaneEpochs the epochs stepped with two or
	// more lanes at once, since the simulation was built or reset.
	Work           beacon.Work
	BucketRebuilds int
	LaneEpochs     int
}

// Stats returns the simulation's current retention statistics and work
// counters.
func (s *Simulation) Stats() Stats {
	st := Stats{Cohorts: len(s.cohorts), Oracle: s.oracle.Stats(), BucketRebuilds: s.bucketRebuilds, LaneEpochs: s.laneEpochs}
	for _, c := range s.cohorts {
		w := c.Node.Work()
		st.Work.TallyRows += w.TallyRows
		st.Work.StakeSums += w.StakeSums
		ts := c.Node.Tree.Stats()
		st.Tree.Nodes += ts.Nodes
		st.Tree.Segments += ts.Segments
		st.Tree.Folded += ts.Folded
		st.Tree.Bytes += ts.Bytes
		if pa, ok := c.Node.Votes.(*forkchoice.ProtoArray); ok {
			es := pa.Stats()
			st.Engine.Nodes += es.Nodes
			st.Engine.Validators += es.Validators
			st.Engine.Bytes += es.Bytes
		}
	}
	return st
}

// RunEpochs executes whole epochs from the current slot. An epoch in which
// the honest partitions cannot hear each other is stepped lane by lane, a
// lane per partition, on up to GOMAXPROCS goroutines (laned); its results
// are those of stepping it slot by slot.
func (s *Simulation) RunEpochs(n int) error {
	end := s.slot + types.Slot(uint64(n)*s.Cfg.Spec.SlotsPerEpoch)
	for s.slot < end {
		var err error
		if s.laned(end) {
			err = s.stepLanes()
		} else {
			err = s.Step()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// SafetyViolation describes a detected conflicting finalization.
type SafetyViolation struct {
	NodeA, NodeB types.ValidatorIndex
	A, B         types.Checkpoint
}

// Error renders the violation.
func (v SafetyViolation) Error() string {
	return fmt.Sprintf("sim: conflicting finalization: node %d finalized %s, node %d finalized %s",
		v.NodeA, v.A, v.NodeB, v.B)
}

// CheckFinalitySafety audits the honest cohorts' finalized checkpoints
// against the omniscient tree and returns a SafetyViolation if two of them
// are on different branches — the paper's Safety violation (1). Returns nil
// when Safety holds. Two validators sharing a view cannot conflict, so the
// audit is quadratic in cohorts, not validators.
func (s *Simulation) CheckFinalitySafety() *SafetyViolation {
	for i := 0; i < len(s.cohorts); i++ {
		ca := s.cohorts[i]
		if ca.Byzantine {
			continue
		}
		for j := i + 1; j < len(s.cohorts); j++ {
			cb := s.cohorts[j]
			if cb.Byzantine {
				continue
			}
			a, b := ca.Node.Finalized(), cb.Node.Finalized()
			if err := ffg.CheckConflict(a, b, s.oracle.IsAncestor); err != nil {
				return &SafetyViolation{NodeA: ca.Members[0], NodeB: cb.Members[0], A: a, B: b}
			}
		}
	}
	return nil
}

// byzantineProportionIn is the Byzantine stake proportion in a view's
// registry, the paper's Safety threshold metric (2); total is the
// registry's TotalStake.
func (s *Simulation) byzantineProportionIn(reg *validator.Registry, total types.Gwei) float64 {
	if total == 0 {
		return 0
	}
	return float64(reg.StakeOf(s.Cfg.Byzantine)) / float64(total)
}
