package main

import (
	"repro/internal/attestation"
	"repro/internal/blocktree"
	"repro/internal/forkchoice"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/types"
)

// compactWatermark and compactWindowEpochs mirror sim's unexported
// compaction defaults: a view's tree folds its cold spine at the epoch
// boundary where it holds this many nodes, keeping this many recent epochs.
const (
	compactWatermark    = 1024
	compactWindowEpochs = 8
)

// probes times single calls into each kernel layer's public functions,
// always on clones taken between steps, so the simulation under trace never
// sees them (the frame comparison at the horizon would catch a leak).
type probes struct {
	e *env
	s *sim.Simulation
	// perCall holds seconds per call, by span name.
	perCall map[string]samples
	folded  samples
	nodes   samples
}

func newProbes(e *env, s *sim.Simulation) *probes {
	return &probes{e: e, s: s, perCall: map[string]samples{}}
}

// time records one span covering `calls` calls of a layer function.
func (p *probes) time(parent, op int, name string, calls int, f func()) {
	d := p.e.tr.call(parent, op, name, f)
	p.perCall[name] = append(p.perCall[name], d/float64(calls))
}

// beforeBoundary runs ahead of the boundary-slot Step that opens `epoch`.
// A compaction about to fire is always probed; the other layers only at the
// sampled epochs.
func (p *probes) beforeBoundary(parent, epoch int, sampled bool) {
	op := p.e.tr.newOp()
	slot := p.s.Slot()
	for _, c := range p.s.Cohorts() {
		// The step's own deliveries add at most this slot's block first.
		if epoch > compactWindowEpochs && c.Node.Tree.Len()+1 >= compactWatermark {
			n := c.Node.Clone()
			olderThan := types.Epoch(epoch - compactWindowEpochs).StartSlot()
			var folded int
			p.time(parent, op, "blocktree.compact", 1, func() { folded = n.CompactTree(olderThan) })
			p.folded = append(p.folded, float64(folded))
		}
	}
	if !sampled {
		return
	}
	calls := p.e.cfg.Scale.ProbeCalls
	prev := types.Epoch(epoch - 1)

	nc := p.s.Net.Clone()
	p.time(parent, op, "network.deliveries", len(p.s.Cohorts()), func() {
		for _, c := range p.s.Cohorts() {
			nc.Deliveries(network.NodeID(c.Index), slot)
		}
	})

	for _, c := range p.s.Cohorts() {
		// One slot's duty: a thirty-second of the cohort attests.
		duty := c.Members[:(len(c.Members)+31)/32]

		n := c.Node.Clone()
		// A clone's engine has never seen the cloned tree: its first head
		// query rebuilds, the following ones are settled pointer reads.
		p.time(parent, op, "forkchoice.rebuild", 1, func() { _, _ = n.Head() })
		p.time(parent, op, "forkchoice.head", calls, func() {
			for i := 0; i < calls; i++ {
				_, _ = n.Head()
			}
		})
		if pa, ok := n.Votes.(*forkchoice.ProtoArray); ok {
			p.nodes = append(p.nodes, float64(pa.Stats().Nodes))
		}
		var data attestation.Data
		p.time(parent, op, "beacon.attestation_data", 1, func() { data, _ = n.AttestationData(slot) })
		var blk blocktree.Block
		p.time(parent, op, "beacon.produce_block", 1, func() { blk, _ = n.ProduceBlockFor(slot, c.Members[0]) })
		p.time(parent, op, "beacon.receive_attestation", len(duty), func() {
			for _, v := range duty {
				n.ReceiveAttestation(attestation.Attestation{Validator: v, Data: data})
			}
		})
		// The slot's block lands and the next duty votes move onto it.
		n.ReceiveBlock(blk)
		p.time(parent, op, "forkchoice.head_after_votes", 1, func() {
			for _, v := range duty {
				n.Votes.Process(v, blk.Root, slot+1)
			}
			_, _ = n.Head()
		})
		// Mid-leak every balance differs from the justified snapshot's, so
		// this re-queues the whole validator set.
		p.time(parent, op, "forkchoice.update_stakes", 1, func() {
			n.Votes.UpdateStakes(n.Registry.Len(), n.Registry.Stake)
		})

		b := c.Node.Clone()
		p.time(parent, op, "beacon.boundary", 1, func() { _, _ = b.ProcessEpochBoundary(types.Epoch(epoch)) })

		pool := c.Node.Pool.Clone()
		p.time(parent, op, "attestation.add", len(duty), func() {
			for _, v := range duty {
				pool.Add(attestation.Attestation{Validator: v, Data: data})
			}
		})
		stake := c.Node.Registry.Stake
		// Size the scratch first, as the node's reused buffer is.
		tally := pool.AppendLinkTally(nil, prev, stake)
		p.time(parent, op, "attestation.link_tally", 1, func() { tally = pool.AppendLinkTally(tally[:0], prev, stake) })
		ffgc := c.Node.FFG.Clone()
		total := c.Node.Registry.TotalStake()
		p.time(parent, op, "ffg.process_tally", 1, func() { ffgc.ProcessTally(prev, tally, total, types.Epoch(epoch)) })
		if epoch > 4 {
			p.time(parent, op, "attestation.prune", 1, func() { pool.Prune(types.Epoch(epoch - 4)) })
		}

		reg := c.Node.Registry.Clone()
		votes := c.Node.Pool.VotesForEpoch(prev)
		active := func(v types.ValidatorIndex) bool { return int(v) < len(votes) && len(votes[v]) > 0 }
		p.time(parent, op, "incentives.process_epoch", 1, func() { c.Node.Leak.ProcessEpoch(reg, active, true, prev) })
		p.time(parent, op, "validator.total_stake", 10, func() {
			for i := 0; i < 10; i++ {
				reg.TotalStake()
			}
		})

		tree := c.Node.Tree.Clone()
		tip := blk.Parent
		p.time(parent, op, "blocktree.add", 32, func() {
			for i := uint64(0); i < 32; i++ {
				next := blocktree.Block{Slot: slot + types.Slot(i), Root: types.RootFromUint64(1<<62 | uint64(slot)<<8 | i), Parent: tip}
				_ = tree.Add(next) // a fresh root under a known parent cannot be rejected
				tip = next.Root
			}
		})
	}
}

// report turns the per-call samples into the kernel layers' metrics.
func (p *probes) report() {
	set := func(metric, spanName, unit string, scale float64) {
		p.e.set(metric, p.perCall[spanName].stat(unit, scale))
	}
	set("network.deliveries_us", "network.deliveries", "us", 1e6)
	set("beacon.boundary_ms", "beacon.boundary", "ms", 1e3)
	set("beacon.attestation_data_us", "beacon.attestation_data", "us", 1e6)
	set("beacon.receive_attestation_us", "beacon.receive_attestation", "us", 1e6)
	set("beacon.produce_block_us", "beacon.produce_block", "us", 1e6)
	set("forkchoice.head_ns", "forkchoice.head", "ns", 1e9)
	set("forkchoice.head_after_votes_us", "forkchoice.head_after_votes", "us", 1e6)
	set("forkchoice.rebuild_ms", "forkchoice.rebuild", "ms", 1e3)
	set("forkchoice.update_stakes_ms", "forkchoice.update_stakes", "ms", 1e3)
	set("attestation.add_us", "attestation.add", "us", 1e6)
	set("attestation.link_tally_us", "attestation.link_tally", "us", 1e6)
	set("attestation.prune_us", "attestation.prune", "us", 1e6)
	set("ffg.process_tally_us", "ffg.process_tally", "us", 1e6)
	set("incentives.process_epoch_ms", "incentives.process_epoch", "ms", 1e3)
	set("validator.total_stake_us", "validator.total_stake", "us", 1e6)
	set("blocktree.compact_ms", "blocktree.compact", "ms", 1e3)
	set("blocktree.add_us", "blocktree.add", "us", 1e6)
	p.e.value("blocktree.folded", "count", p.folded.median())
	p.e.value("forkchoice.nodes", "count", p.nodes.median())
}
