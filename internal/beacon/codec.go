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

func walkSpec(s *types.Spec, c *codec.Coder) {
	c.U64(&s.SlotsPerEpoch)
	c.U64(&s.InactivityPenaltyQuotient)
	c.U64(&s.InactivityScoreBias)
	c.U64(&s.InactivityScoreRecovery)
	c.U64(&s.InactivityScoreFlatRecovery)
	c.U64(&s.MinEpochsToInactivityLeak)
	c.U64((*uint64)(&s.EjectionBalance))
	c.U64((*uint64)(&s.MaxEffectiveBalance))
	c.Bool(&s.ResidualPenalties)
}

// walkRegistry moves the registry's columns, a row per validator. Decoding
// sizes them once by the count; a status past Ejected is corrupt.
func walkRegistry(reg *validator.Registry, c *codec.Coder) {
	n := reg.Len()
	if c.Count(&n, 8+8+1+8); !c.Encoding() { // stake, score, status, exit epoch
		reg.Reset(n, 0)
	}
	cols := reg.Columns()
	for i := 0; i < n && c.Err() == nil; i++ {
		c.U64((*uint64)(&cols.Stakes[i]))
		c.U64(&cols.Scores[i])
		c.Byte((*byte)(&cols.Status[i]))
		c.U64((*uint64)(&cols.Exit[i]))
		if cols.Status[i] > validator.Ejected {
			c.Corrupt("beacon: validator %d has status %d", i, cols.Status[i])
		}
	}
}

// Walk moves the node's full protocol state for the durable snapshot
// codec. The field list mirrors Clone exactly: everything Clone deep-copies
// is moved; everything Clone rebuilds or deliberately drops (the visibility
// filter, the bound stake/activity closures, the tally scratch) is rebuilt
// or dropped on decode too. Decoding fills the node in the storage it holds
// — each component's walk empties it, as its Reset does, and refills it; a
// new Node's components are new — rebinds the stake and activity method
// values exactly as Clone does, and builds the incentive engine from the
// node's own spec, as Reset does. The decoded
// fork-choice engine carries no cached tree identity, so its first head
// query rebuilds against the decoded tree — the same one-time
// O(tree + validators) event a cloned engine pays.
func (n *Node) Walk(c *codec.Coder) {
	if !c.Encoding() {
		if n.Tree == nil {
			n.Tree, n.FFG, n.Pool = new(blocktree.Tree), new(ffg.Engine), new(attestation.Pool)
			n.Detector, n.Registry = new(slashing.Detector), new(validator.Registry)
			n.pending = make(map[types.Root][]blocktree.Block)
		}
		clear(n.pending)
	}
	walkSpec(&n.Spec, c)
	c.Bool(&n.EnforceSlashing)
	n.Tree.Walk(c)
	forkchoice.WalkEngine(c, &n.Votes)
	n.FFG.Walk(c)
	n.Pool.Walk(c)
	n.Detector.Walk(c)
	walkRegistry(n.Registry, c)
	// Pending blocks, sorted by missing-parent root for deterministic
	// bytes; each waiter list keeps its arrival order.
	var parents []types.Root
	if c.Encoding() {
		parents = slices.AppendSeq(make([]types.Root, 0, len(n.pending)), maps.Keys(n.pending))
		slices.SortFunc(parents, func(a, b types.Root) int { return bytes.Compare(a[:], b[:]) })
	}
	codec.Slice(c, &parents, 32+4, func(p *types.Root, c *codec.Coder) {
		c.Raw(p[:])
		blocks := n.pending[*p]
		if codec.Slice(c, &blocks, blocktree.BlockBytes, (*blocktree.Block).Walk); !c.Encoding() {
			n.pending[*p] = blocks
		}
	})
	c.U64((*uint64)(&n.incentivesNext))
	if !c.Encoding() {
		n.Leak = incentives.Engine{Spec: n.Spec}
		n.stakeFn = n.Registry.Stake
		n.totalSet = false
	}
}
