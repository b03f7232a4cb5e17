// Package beacon assembles the substrates into a full protocol node: one
// validator's view of the chain. A node owns a block tree, an LMD-GHOST
// vote store, a Casper-FFG finality engine, an attestation pool, a slashing
// detector, and a validator registry (its branch-local balance sheet).
//
// Nodes are deliberately view-local: during a partition, nodes in different
// partitions receive different messages, justify and finalize different
// checkpoints, evaluate activity differently, and therefore apply different
// penalties — which is precisely the mechanism the paper exploits.
package beacon

import (
	"fmt"

	"repro/internal/attestation"
	"repro/internal/blocktree"
	"repro/internal/ffg"
	"repro/internal/forkchoice"
	"repro/internal/incentives"
	"repro/internal/slashing"
	"repro/internal/types"
	"repro/internal/validator"
)

// ffgWindow is how many target epochs, ending with the one just ended, a
// boundary re-scans for justification.
const ffgWindow = 4

// Node is one validator's protocol view. Construct with NewNodeWithForkChoice.
type Node struct {
	Spec types.Spec

	Tree     *blocktree.Tree
	Votes    forkchoice.Engine
	FFG      *ffg.Engine
	Pool     *attestation.Pool
	Detector *slashing.Detector
	Registry *validator.Registry
	Leak     incentives.Engine

	// hidden lists the blocks head computation skips. The view-cohort
	// simulator installs it while a block one cohort member produced this
	// slot is still in flight to the rest, the only within-cohort view
	// difference the protocol creates (see internal/sim).
	//gasper:nocodec per-computation filter the simulator installs; snapshots restore unfiltered
	//gasper:shallow Clone deliberately drops it; the simulator reinstalls it around each computation
	hidden []types.Root

	// pending buffers blocks whose parent has not arrived yet,
	// keyed by the missing parent.
	pending map[types.Root][]blocktree.Block
	// incentivesNext is the next epoch whose penalties are still to be
	// applied. Boundary processing advances strictly forward, so a single
	// watermark replaces the per-epoch map the pre-long-horizon node kept
	// (which grew one entry per epoch for the whole run).
	incentivesNext types.Epoch
	// tallyScratch holds the reusable boundary buffers for the columnar FFG
	// link tally, one per epoch of the re-scan window, and stakeFn the
	// pre-bound Registry.Stake method value that fork choice's stake
	// updates read, so a steady-state epoch transition performs no
	// allocation (a method value materialized at the call site would
	// allocate its receiver binding on every boundary).
	//gasper:nocodec scratch buffer; each node re-grows its own
	//gasper:shallow scratch buffer; clones re-grow their own
	tallyScratch [ffgWindow][]attestation.LinkWeight
	stakeFn      func(types.ValidatorIndex) types.Gwei //gasper:nocodec rebound to the decoded Registry by Walk
	// activity is the boundary's activity criterion, loaded from the pool
	// for the ended epoch and the canonical target: its column is what the
	// incentive sweep reads, kept on the node so the boundary allocates
	// neither a match table nor a column per epoch.
	//gasper:nocodec per-boundary working set; the next boundary reloads it
	//gasper:shallow per-boundary working set; a clone's next boundary loads its own
	activity attestation.Activity
	// batchNew is ReceiveBatch's scratch: the batch's validators whose vote
	// was new to the pool.
	//gasper:nocodec scratch buffer; each node re-grows its own
	//gasper:shallow scratch buffer; clones re-grow their own
	batchNew []types.ValidatorIndex
	// batchEvidence is ReceiveBatch's other scratch: the offenses the batch
	// completed, which it applies to the registry.
	//gasper:nocodec scratch buffer; each node re-grows its own
	//gasper:shallow scratch buffer; clones re-grow their own
	batchEvidence []slashing.Evidence
	// pinned is CompactTree's set of roots to keep, emptied each call.
	//gasper:nocodec scratch set; holds nothing between compactions
	//gasper:shallow scratch set; a clone makes its own on its first compaction
	pinned map[types.Root]struct{}
	// total is the registry's in-set stake while totalSet: the incentive
	// sweep measures it, and between sweeps only a slashing moves it.
	//gasper:nocodec derived from the registry; a decoded node sums it afresh
	//gasper:shallow derived from the registry; a clone sums it afresh
	total types.Gwei
	//gasper:nocodec derived from the registry; a decoded node sums it afresh
	//gasper:shallow derived from the registry; a clone sums it afresh
	totalSet bool
	//gasper:nocodec a count of work done, not protocol state
	//gasper:shallow a count of work done; a clone counts its own from zero
	work Work
}

// Work counts what a node's epoch boundaries swept: counts, unlike times,
// read the same on any host, so benchmarks report them and gates bound them.
type Work struct {
	// TallyRows is the validator rows the FFG window tally swept.
	TallyRows int
	// StakeSums is the full sums of the registry's in-set stake.
	StakeSums int
}

// NewNodeWithForkChoice builds a node over a fresh view with nValidators
// at the spec's maximum balance, running the given fork-choice engine: the
// incremental forkchoice.ProtoArray, or the map-based reference the
// equivalence suites run whole simulations on.
func NewNodeWithForkChoice(nValidators int, spec types.Spec, genesis types.Root, votes forkchoice.Engine) *Node {
	n := &Node{
		Tree:     new(blocktree.Tree),
		Votes:    votes,
		Pool:     new(attestation.Pool),
		Registry: new(validator.Registry),
		pending:  make(map[types.Root][]blocktree.Block),
	}
	n.Reset(nValidators, spec, genesis)
	return n
}

// Reset makes the node the one NewNodeWithForkChoice builds over its own
// fork-choice engine, in the storage it already holds: tree pages, vote and
// registry columns, and pool epochs (sized to nValidators, so an epoch's
// column never regrows) are emptied, not freed. A node recycled for a run
// over as many validators as its last allocates little more than the
// genesis checkpoint. Only a node nothing else holds may be reset; Clone
// shares no storage with its original.
func (n *Node) Reset(nValidators int, spec types.Spec, genesis types.Root) {
	n.Spec, n.Leak = spec, incentives.Engine{Spec: spec}
	n.Tree.Reset(genesis)
	n.FFG = ffg.NewEngine(genesis)
	n.Pool.Reset(nValidators)
	n.Detector = new(slashing.Detector)
	n.Registry.Reset(nValidators, spec.MaxEffectiveBalance)
	n.hidden, n.incentivesNext = nil, 0
	n.totalSet, n.work = false, Work{}
	clear(n.pending)
	n.stakeFn = n.Registry.Stake
	n.Votes.Reset()
	n.Votes.UpdateStakes(nValidators, n.stakeFn)
}

// Clone deep-copies the node's full protocol state. The clone's fork-choice
// engine retains its cached identity of the ORIGINAL tree, so its first
// head query against the cloned tree detects the new identity and rebuilds
// once — an O(validators + tree) event, after which it is incremental
// again. A hidden list (SetHidden) is NOT carried over: it is transient
// per-computation state, installed and removed around a single head query;
// clone between queries, when none is installed (as the simulator's
// Snapshot does). Clones power the simulator's
// Snapshot/Restore (long runs resumed, sweeps warm-started from a shared
// prefix).
func (n *Node) Clone() *Node {
	out := &Node{
		Spec:           n.Spec,
		Tree:           n.Tree.Clone(),
		Votes:          n.Votes.CloneEngine(),
		FFG:            n.FFG.Clone(),
		Pool:           n.Pool.Clone(),
		Detector:       n.Detector.Clone(),
		Registry:       n.Registry.Clone(),
		Leak:           n.Leak,
		pending:        make(map[types.Root][]blocktree.Block, len(n.pending)),
		incentivesNext: n.incentivesNext,
	}
	//gasper:ordered per-key copy into a fresh map: the clone is the same whatever the order
	for parent, blocks := range n.pending {
		out.pending[parent] = append([]blocktree.Block(nil), blocks...)
	}
	out.stakeFn = out.Registry.Stake
	return out
}

// ReceiveBlock ingests a block, buffering it if its parent is unknown and
// flushing any descendants that were waiting on it.
func (n *Node) ReceiveBlock(b blocktree.Block) {
	if n.Tree.Has(b.Root) {
		return
	}
	if !n.Tree.Has(b.Parent) {
		n.pending[b.Parent] = append(n.pending[b.Parent], b)
		return
	}
	if err := n.Tree.Add(b); err != nil {
		return // duplicate or malformed; ignore like a real node would
	}
	// Flush children that were waiting for this block.
	waiting := n.pending[b.Root]
	delete(n.pending, b.Root)
	for _, w := range waiting {
		n.ReceiveBlock(w)
	}
}

// ReceiveAttestation ingests one validator's attestation: ReceiveBatch
// with a batch of one.
func (n *Node) ReceiveAttestation(a attestation.Attestation) {
	one := [1]types.ValidatorIndex{a.Validator}
	n.ReceiveBatch(a.Data, one[:])
}

// ReceiveBatch ingests one attestation data value cast by every listed
// validator — a cohort's duty slot as it travels the network — exactly as
// one attestation per validator in listed order would be: the checkpoint
// vote goes to the pool, and for each validator to whom it is new there,
// the block vote to fork choice, and the slashing detector checks the vote
// against the validator's others in the pool. Detected offenses are applied
// to the registry. All three take the batch
// whole: the pool interns the value once, fork choice sizes its columns and
// resolves the head root once, the detector judges each retained epoch once.
//
//gasper:noalloc
func (n *Node) ReceiveBatch(data attestation.Data, validators []types.ValidatorIndex) {
	n.batchNew = n.Pool.AddBatch(n.batchNew[:0], data, validators)
	n.Votes.ProcessBatch(n.batchNew, data.Head, data.Slot)
	n.batchEvidence = n.Detector.ObserveBatch(n.batchEvidence[:0], n.Pool, data, n.batchNew)
	if len(n.batchEvidence) > 0 {
		for _, ev := range n.batchEvidence {
			_ = n.Registry.Slash(ev.Validator, data.Slot.Epoch())
		}
		n.totalSet = false
	}
}

// SetHidden installs (or, with nil, removes) a view filter: head
// computations skip the listed blocks. The list is borrowed, not copied —
// the simulator installs it around one per-validator computation and
// removes it before reusing the slice; it does not affect block or
// attestation ingestion.
func (n *Node) SetHidden(hidden []types.Root) { n.hidden = hidden }

// Head computes the node's candidate-chain head: LMD-GHOST from the block
// of the latest justified checkpoint, weighing votes with the balances of
// the justified state (not the current view's balances), as the consensus
// spec does — which keeps weights identical across views that agree on the
// justified checkpoint, the property that lets partitions reconcile after
// healing. Those balances are pushed into the fork-choice engine whenever
// the justified checkpoint advances and live only in its stake column, so
// the engine applies them as vote deltas instead of re-reading every
// validator's stake per call. An installed hidden list restricts the
// descent.
func (n *Node) Head() (types.Root, error) {
	start := n.FFG.LatestJustified().Root
	if !n.Tree.Has(start) {
		start = n.Tree.Genesis()
	}
	return n.Votes.HeadFiltered(n.Tree, start, n.hidden)
}

// ProduceBlockFor builds the block validator `proposer` would propose at
// slot from this view, extending the current head. The block root is a
// deterministic hash of (slot, proposer, parent) so that all views mint
// identical identifiers. The block is NOT applied to the view; the caller
// decides when the view receives it (the view-cohort simulator applies it
// immediately for the proposer and embargoes it for everyone else).
func (n *Node) ProduceBlockFor(slot types.Slot, proposer types.ValidatorIndex) (blocktree.Block, error) {
	head, err := n.Head()
	if err != nil {
		return blocktree.Block{}, fmt.Errorf("beacon: produce block: %w", err)
	}
	return blocktree.Block{
		Slot:     slot,
		Root:     types.HashRoots(uint64(slot)<<20|uint64(proposer), head),
		Parent:   head,
		Proposer: proposer,
	}, nil
}

// AttestationData builds the attestation content any validator sharing
// this view casts at the given slot: block vote = current head, source =
// latest justified checkpoint, target = current epoch's checkpoint on the
// head branch. The view-cohort simulator computes it once per cohort and
// fans it out to every duty member.
func (n *Node) AttestationData(slot types.Slot) (attestation.Data, error) {
	head, err := n.Head()
	if err != nil {
		return attestation.Data{}, fmt.Errorf("beacon: attest: %w", err)
	}
	target, err := n.Tree.CheckpointFor(head, slot.Epoch())
	if err != nil {
		return attestation.Data{}, fmt.Errorf("beacon: attest: %w", err)
	}
	return attestation.Data{
		Slot:   slot,
		Head:   head,
		Source: n.FFG.LatestJustified(),
		Target: target,
	}, nil
}

// EpochReport summarizes one ProcessEpochBoundary call.
type EpochReport struct {
	Epoch          types.Epoch
	InLeak         bool
	FFG            ffg.Result
	Leak           incentives.Summary
	CanonicalCheck types.Checkpoint
}

// ProcessEpochBoundary runs at the first slot of `newEpoch`. It
//
//  1. re-scans the FFG justification window (the last four target epochs)
//     against the pool, so late-arriving votes still justify — idempotent,
//     and skipping an epoch that has had no vote since a tally that found
//     every link at most 2/3 of the stake (stakes only fall in a run);
//  2. applies inactivity-leak incentive processing exactly once for the
//     epoch that just ended, using this view's canonical checkpoint as the
//     activity criterion;
//  3. prunes old pool entries.
func (n *Node) ProcessEpochBoundary(newEpoch types.Epoch) (EpochReport, error) {
	if newEpoch == 0 {
		return EpochReport{}, nil
	}
	ended := newEpoch - 1

	// FFG window re-scan, on the columnar path: each epoch's
	// validator-indexed vote column is tallied beside the registry's stake
	// and status columns into a reusable link-weight scratch and fed to the
	// FFG engine's slice sweep, so a steady-state boundary (the whole of a
	// leak) allocates nothing.
	var ffgRes ffg.Result
	justifiedBefore := n.FFG.LatestJustified()
	lo := types.Epoch(0)
	if newEpoch > ffgWindow {
		lo = newEpoch - ffgWindow
	}
	total := n.TotalStake()
	window := n.tallyScratch[:newEpoch-lo]
	for k := range window {
		window[k] = window[k][:0]
	}
	n.work.TallyRows += n.Pool.AppendWindowTally(window, lo, *n.Registry.Columns(), total)
	for k, tally := range window {
		res := n.FFG.ProcessTally(lo+types.Epoch(k), tally, total, newEpoch)
		ffgRes.NewlyJustified = append(ffgRes.NewlyJustified, res.NewlyJustified...)
		ffgRes.NewlyFinalized = append(ffgRes.NewlyFinalized, res.NewlyFinalized...)
	}
	// The justified checkpoint advanced: push the balances as of now into
	// the fork-choice engine as stake deltas. The engine keeps them in its
	// own column until the next advance, so the rule weighs votes with the
	// justified state's balances, not the current view's.
	if n.FFG.LatestJustified() != justifiedBefore {
		n.Votes.UpdateStakes(n.Registry.Len(), n.stakeFn)
	}

	// Finality advanced: blocks conflicting with the finalized checkpoint
	// can never return to the canonical chain, so reclaim their memory.
	if len(ffgRes.NewlyFinalized) > 0 {
		if fin := n.FFG.Finalized(); n.Tree.Has(fin.Root) && fin.Root != n.Tree.Genesis() {
			_, _ = n.Tree.PruneBelow(fin.Root)
		}
	}

	report := EpochReport{Epoch: ended, FFG: ffgRes}

	// Incentives: once per ended epoch (the watermark advances with the
	// boundary; replays of an already-processed boundary re-scan FFG —
	// idempotent — but never re-apply penalties).
	if ended >= n.incentivesNext {
		n.incentivesNext = ended + 1
		head, err := n.Head()
		if err != nil {
			return report, fmt.Errorf("beacon: epoch boundary: %w", err)
		}
		canonical, err := n.Tree.CheckpointFor(head, ended)
		if err != nil {
			return report, fmt.Errorf("beacon: epoch boundary: %w", err)
		}
		report.CanonicalCheck = canonical
		inLeak := n.FFG.InLeak(newEpoch, n.Spec)
		report.InLeak = inLeak
		// Activity is filled from the ended epoch's id columns in one
		// pass: the canonical target is compared once per distinct vote,
		// and the incentive sweep reads the column beside the registry's,
		// one slice index per validator. The column stops at the pool's
		// vote columns; the sweep reads a validator past it as inactive.
		active := n.Pool.Activity(&n.activity, ended, canonical.Root)
		report.Leak = n.Leak.ProcessColumn(n.Registry, active, inLeak, ended)
		n.total, n.totalSet = report.Leak.TotalStake, true
	}

	// Bound pool memory, and with it the slashing detection window.
	if newEpoch > 8 {
		n.Pool.Prune(newEpoch - 8)
	}
	return report, nil
}

// CompactTree folds the cold unbranched spine of the block tree into
// skip segments (blocktree.Compact) once finality has stalled long enough
// that PruneBelow cannot reclaim it. Every root the node can still
// observe is pinned exactly: the FFG checkpoint anchors (justified set,
// finalized, latest justified) and the latest vote target of every
// validator. Returns the number of folded blocks; the tree's Version bump
// makes the fork-choice engine rebuild against the compacted index space.
// A view's validators vote for a handful of distinct roots (13-21 of 5,000
// latest votes deep in a leak), so the pin set grows to what it holds
// instead of being sized for the registry; consecutive validators often
// share a root (~2 votes a run), and a run inserts its root once.
func (n *Node) CompactTree(olderThan types.Slot) int {
	if n.pinned == nil {
		n.pinned = make(map[types.Root]struct{})
	}
	pinned := n.pinned
	clear(pinned)
	for _, c := range n.FFG.Justifieds() {
		pinned[c.Root] = struct{}{}
	}
	pinned[n.FFG.Finalized().Root] = struct{}{}
	pinned[n.FFG.LatestJustified().Root] = struct{}{}
	var prev types.Root
	have := false
	for v := 0; v < n.Registry.Len(); v++ {
		m, ok := n.Votes.Latest(types.ValidatorIndex(v))
		if !ok || have && m.Root == prev {
			continue
		}
		pinned[m.Root] = struct{}{}
		prev, have = m.Root, true
	}
	return n.Tree.Compact(olderThan, func(r types.Root) bool {
		_, ok := pinned[r]
		return ok
	})
}

// TotalStake returns the in-set stake of the node's registry: the last
// incentive sweep's measure while no slashing has moved it since, else a
// fresh sum, kept until the next sweep or slashing.
func (n *Node) TotalStake() types.Gwei {
	if !n.totalSet {
		n.total, n.totalSet = n.Registry.TotalStake(), true
		n.work.StakeSums++
	}
	return n.total
}

// Work returns the node's work counters since it was built or reset.
func (n *Node) Work() Work { return n.work }

// Finalized returns the node's finalized checkpoint.
func (n *Node) Finalized() types.Checkpoint { return n.FFG.Finalized() }
