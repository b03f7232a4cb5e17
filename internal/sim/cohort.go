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
// serve the whole cohort. All Byzantine validators bridge every partition
// and hear everything, so they share a single omniscient view too.
type Cohort struct {
	// Index is the cohort's position in Simulation.Cohorts and its
	// network endpoint id.
	Index int
	// Node is the materialized view every member holds.
	Node *beacon.Node
	// Partition is the pre-GST network partition (and drop-link class) of
	// the members; -1 for the Byzantine cohort.
	Partition int
	// Byzantine marks the adversary's cohort.
	Byzantine bool
	// Members lists the validators holding this view, ascending. Callers
	// must not mutate it.
	Members []types.ValidatorIndex
	// voters backs the list deliver hands the view for a batch that omits
	// one of its listed validators.
	voters []types.ValidatorIndex
}

// byzPartition is the drop-link class of the bridging Byzantine cohort;
// bridging dominates reachability, so the value only needs to differ from
// every honest partition id.
const byzPartition = -1

// buildCohorts groups the validator set into cohorts. In the default mode,
// honest validators cohort by partition (in order of first appearance,
// scanning ascending validator indices) and all Byzantine validators form
// one bridging cohort. Under the tests' singleton reference every
// validator is its own cohort, which reproduces the pre-refactor
// one-node-per-validator layout exactly.
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
		if byzantine[v] {
			return byzPartition
		}
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
			Byzantine: byzantine[first],
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
		if c.Node != nil {
			c.Node.EnforceSlashing = !c.Byzantine
		}
		cohorts = append(cohorts, c)
		return c
	}

	if cfg.reference.singletons {
		for i := 0; i < cfg.Validators; i++ {
			v := types.ValidatorIndex(i)
			c := newCohort(v)
			c.Members = append(c.Members, v)
			cohortOf[i] = c.Index
		}
		return cohorts, cohortOf
	}

	byKey := make(map[int]*Cohort)
	for i := 0; i < cfg.Validators; i++ {
		v := types.ValidatorIndex(i)
		key := partitionOf(v)
		c, ok := byKey[key]
		if !ok {
			c = newCohort(v)
			byKey[key] = c
		}
		c.Members = append(c.Members, v)
		cohortOf[i] = c.Index
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
		if c.Byzantine {
			net.SetBridging(network.NodeID(c.Index), true)
		}
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
