package sim

import (
	"repro/internal/beacon"
	"repro/internal/forkchoice"
	"repro/internal/network"
	"repro/internal/types"
)

// Cohort is one materialized view and the set of validators holding it.
//
// All honest validators sharing a partition receive exactly the same
// messages at the same slots (intra-partition delivery is uniform, drops
// are link-level, and the only per-validator difference — a proposer
// holding its own block one delay early — is tracked separately as an
// embargo), so they provably hold identical views and one beacon.Node can
// serve the whole cohort. Byzantine validators hold no view: the adversary
// reads the honest views and the simulation's omniscient block tree
// (Simulation.Blocks).
type Cohort struct {
	// Index is the cohort's position in Simulation.Cohorts and its
	// network endpoint id.
	Index int
	// Node is the materialized view every member holds.
	Node *beacon.Node
	// Partition is the pre-GST network partition (and drop-link class) of
	// the members.
	Partition int
	// Members lists the validators holding this view, ascending. Callers
	// must not mutate it.
	Members []types.ValidatorIndex
	// voters backs the list deliver hands the view for a batch that omits
	// one of its listed validators.
	voters []types.ValidatorIndex
}

// buildCohorts groups the honest validators into cohorts: by partition, in
// order of first appearance scanning ascending validator indices. Under the
// tests' singleton reference every honest validator is its own cohort,
// which reproduces the pre-refactor one-node-per-validator layout exactly.
// A Byzantine validator's entry in the routing column is len(cohorts), the
// network sender id that is no endpoint (see network): it reaches every
// partition at once and nothing is queued for it.
//
// shell skips the per-cohort Node construction (see NewShell): the cohort
// layout, membership, and partition assignment are built as usual but
// every Cohort.Node is left nil for a later Restore/Adopt to install.
//
// old and cohortOf are a reset simulation's cohorts and routing column:
// the i-th cohort built takes over old[i], its node reset in place
// (beacon.Node.Reset) and its member list refilled.
func buildCohorts(cfg Config, byzantine map[types.ValidatorIndex]bool, genesis types.Root, shell bool, old []*Cohort, cohortOf []int) ([]*Cohort, []int) {
	cohortOf = append(cohortOf[:0], make([]int, cfg.Validators)...)
	// cohorts refills old's array: the i-th append stores the cohort just
	// taken from old[i].
	cohorts := old[:0]
	partitionOf := func(v types.ValidatorIndex) int {
		if cfg.PartitionOf != nil {
			return cfg.PartitionOf(v)
		}
		return 0
	}

	newCohort := func(first types.ValidatorIndex) *Cohort {
		c := new(Cohort)
		if len(cohorts) < len(old) {
			c = old[len(cohorts)]
		}
		*c = Cohort{
			Index:     len(cohorts),
			Node:      c.Node,
			Partition: partitionOf(first),
			Members:   c.Members[:0],
			voters:    c.voters,
		}
		switch {
		case shell:
		case c.Node != nil:
			c.Node.Reset(cfg.Validators, cfg.Spec, genesis)
		default:
			var votes forkchoice.Engine = new(forkchoice.ProtoArray)
			if cfg.reference.engine != nil {
				votes = cfg.reference.engine()
			}
			c.Node = beacon.NewNodeWithForkChoice(cfg.Validators, cfg.Spec, genesis, votes)
		}
		cohorts = append(cohorts, c)
		return c
	}

	byKey := make(map[int]*Cohort)
	for i := 0; i < cfg.Validators; i++ {
		v := types.ValidatorIndex(i)
		if byzantine[v] {
			continue
		}
		c, ok := byKey[partitionOf(v)]
		if !ok || cfg.reference.singletons {
			c = newCohort(v)
			byKey[c.Partition] = c
		}
		c.Members = append(c.Members, v)
		cohortOf[i] = c.Index
	}
	for _, b := range cfg.Byzantine {
		cohortOf[b] = len(cohorts)
	}
	return cohorts, cohortOf
}

// wireNetwork builds the message bus with one endpoint per cohort, in the
// storage of a reset simulation's old network when there is one.
func wireNetwork(cfg Config, cohorts []*Cohort, old *network.Network[Message]) *network.Network[Message] {
	ncfg := network.Config{
		Nodes:    len(cohorts),
		GST:      cfg.GST,
		Delay:    cfg.Delay,
		DropRate: cfg.DropRate,
		Seed:     cfg.Seed,
	}
	net := old
	if net == nil {
		net = new(network.Network[Message])
	}
	net.Reset(ncfg)
	for _, c := range cohorts {
		net.SetPartition(network.NodeID(c.Index), c.Partition)
	}
	return net
}

// deliver applies one message to the cohort's view, read in place.
func (c *Cohort) deliver(m *Message) {
	switch m.Kind {
	case BlockMessage:
		c.Node.ReceiveBlock(m.Block)
	case AttestationMessage, BatchMessage:
		c.Node.ReceiveBatch(m.Batch.Data, m.voters(&c.voters))
	}
}
