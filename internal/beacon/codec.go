package beacon

import (
	"bytes"
	"maps"
	"slices"

	"repro/internal/attestation"
	"repro/internal/blocktree"
	"repro/internal/codec"
	"repro/internal/ffg"
	"repro/internal/forkchoice"
	"repro/internal/incentives"
	"repro/internal/slashing"
	"repro/internal/types"
	"repro/internal/validator"
)

func encodeSpec(w *codec.Writer, s types.Spec) {
	w.U64(s.SlotsPerEpoch)
	w.U64(s.InactivityPenaltyQuotient)
	w.U64(s.InactivityScoreBias)
	w.U64(s.InactivityScoreRecovery)
	w.U64(s.InactivityScoreFlatRecovery)
	w.U64(s.MinEpochsToInactivityLeak)
	w.U64(uint64(s.EjectionBalance))
	w.U64(uint64(s.MaxEffectiveBalance))
	w.Bool(s.ResidualPenalties)
}

func decodeSpec(r *codec.Reader) types.Spec {
	var s types.Spec
	s.SlotsPerEpoch = r.U64()
	s.InactivityPenaltyQuotient = r.U64()
	s.InactivityScoreBias = r.U64()
	s.InactivityScoreRecovery = r.U64()
	s.InactivityScoreFlatRecovery = r.U64()
	s.MinEpochsToInactivityLeak = r.U64()
	s.EjectionBalance = types.Gwei(r.U64())
	s.MaxEffectiveBalance = types.Gwei(r.U64())
	s.ResidualPenalties = r.Bool()
	return s
}

func encodeRegistry(w *codec.Writer, reg *validator.Registry) {
	cols := reg.Columns()
	w.Len(len(cols.Stakes))
	for i := range cols.Stakes {
		w.U64(uint64(cols.Stakes[i]))
		w.U64(cols.Scores[i])
		w.Byte(byte(cols.Status[i]))
		w.U64(uint64(cols.Exit[i]))
	}
}

func decodeRegistry(r *codec.Reader) *validator.Registry {
	n := r.Count(8 + 8 + 1 + 8) // stake, score, status, exit epoch
	if r.Err() != nil {
		return nil
	}
	reg := validator.NewRegistry(n, 0)
	cols := reg.Columns()
	for i := 0; i < n; i++ {
		cols.Stakes[i] = types.Gwei(r.U64())
		cols.Scores[i] = r.U64()
		cols.Status[i] = validator.Status(r.Byte())
		cols.Exit[i] = types.Epoch(r.U64())
		if cols.Status[i] > validator.Ejected {
			r.Corrupt("beacon: validator %d has status %d", i, cols.Status[i])
			return nil
		}
	}
	if r.Err() != nil {
		return nil
	}
	return reg
}

// EncodeTo serializes the node's full protocol state for the durable
// snapshot codec. The field list mirrors Clone exactly: everything Clone
// deep-copies is written; everything Clone rebuilds or deliberately drops
// (the visibility filter, the bound stake/activity closures, the tally
// scratch) is rebuilt or dropped on decode too.
func (n *Node) EncodeTo(w *codec.Writer) {
	w.U64(uint64(n.ID))
	encodeSpec(w, n.Spec)
	w.Bool(n.EnforceSlashing)
	encodeSpec(w, n.Leak.Spec)
	w.U64(uint64(n.Leak.AttestationPenalty))
	n.Tree.EncodeTo(w)
	forkchoice.EncodeEngine(w, n.Votes)
	n.FFG.EncodeTo(w)
	n.Pool.EncodeTo(w)
	n.Detector.EncodeTo(w)
	encodeRegistry(w, n.Registry)
	// Pending blocks, sorted by missing-parent root for deterministic
	// bytes; each waiter list keeps its arrival order.
	parents := slices.AppendSeq(make([]types.Root, 0, len(n.pending)), maps.Keys(n.pending))
	slices.SortFunc(parents, func(a, b types.Root) int { return bytes.Compare(a[:], b[:]) })
	w.Len(len(parents))
	for _, p := range parents {
		w.Raw(p[:])
		blocks := n.pending[p]
		w.Len(len(blocks))
		for _, b := range blocks {
			encodeBlock(w, b)
		}
	}
	w.U64(uint64(n.incentivesNext))
	w.Len(len(n.slashEvidence))
	for _, ev := range n.slashEvidence {
		slashing.EncodeEvidence(w, ev)
	}
}

func encodeBlock(w *codec.Writer, b blocktree.Block) {
	w.U64(uint64(b.Slot))
	w.Raw(b.Root[:])
	w.Raw(b.Parent[:])
	w.U64(uint64(b.Proposer))
}

func decodeBlock(r *codec.Reader) blocktree.Block {
	var b blocktree.Block
	b.Slot = types.Slot(r.U64())
	r.Raw(b.Root[:])
	r.Raw(b.Parent[:])
	b.Proposer = types.ValidatorIndex(r.U64())
	return b
}

// DecodeNode reconstructs a node serialized by EncodeTo, rebinding the
// stake and activity method values exactly as Clone does. The decoded
// fork-choice engine carries no cached tree identity, so its first head
// query rebuilds against the decoded tree — the same one-time O(tree +
// validators) event a cloned engine pays.
func DecodeNode(r *codec.Reader) *Node {
	n := &Node{}
	n.ID = types.ValidatorIndex(r.U64())
	n.Spec = decodeSpec(r)
	n.EnforceSlashing = r.Bool()
	n.Leak = incentives.Engine{Spec: decodeSpec(r), AttestationPenalty: types.Gwei(r.U64())}
	n.Tree = blocktree.DecodeTree(r)
	n.Votes = forkchoice.DecodeEngine(r)
	n.FFG = ffg.DecodeEngine(r)
	n.Pool = attestation.DecodePool(r)
	n.Detector = slashing.DecodeDetector(r)
	n.Registry = decodeRegistry(r)
	np := r.Len()
	if r.Err() != nil {
		return nil
	}
	n.pending = make(map[types.Root][]blocktree.Block)
	for i := 0; i < np; i++ {
		var parent types.Root
		r.Raw(parent[:])
		nb := r.Len()
		if r.Err() != nil {
			return nil
		}
		blocks := make([]blocktree.Block, 0, min(nb, 64))
		for j := 0; j < nb && r.Err() == nil; j++ {
			blocks = append(blocks, decodeBlock(r))
		}
		n.pending[parent] = blocks
	}
	n.incentivesNext = types.Epoch(r.U64())
	ne := r.Len()
	if r.Err() != nil {
		return nil
	}
	if ne > 0 {
		n.slashEvidence = make([]slashing.Evidence, 0, min(ne, 64))
		for i := 0; i < ne && r.Err() == nil; i++ {
			n.slashEvidence = append(n.slashEvidence, slashing.DecodeEvidence(r))
		}
	}
	if r.Err() != nil {
		return nil
	}
	n.stakeFn = n.Registry.Stake
	n.activeFn = n.activity.Active
	return n
}
