package gasperleak

import (
	"repro/internal/beacon"
	"repro/internal/behavior"
	"repro/internal/sim"
)

// Re-exported protocol simulator.
type (
	// SimConfig parameterizes a full protocol simulation. It has no
	// switch for the reference implementations the simulator's tests hold
	// it bit-identical to: every SimConfig builds the one simulator the
	// scenario engine, Client and server run.
	SimConfig = sim.Config
	// Simulation is a running protocol instance: one materialized view
	// per cohort (a partition of honest validators) over a partitionable
	// network. Byzantine validators hold no view (View and HomeView
	// return nil for them); an adversary reads the honest views and the
	// omniscient block tree (Blocks).
	Simulation = sim.Simulation
	// Cohort is one materialized view and the validators holding it.
	Cohort = sim.Cohort
	// SimMessage is the simulator's wire format, a value: Kind says
	// whether it carries a Block or a Batch.
	SimMessage = sim.Message
	// AttBatch carries one attestation data value cast by many
	// validators — the wire form of a cohort's duty slot.
	AttBatch = sim.AttBatch
	// Adversary coordinates the Byzantine validators.
	Adversary = sim.Adversary
	// Node is one materialized protocol view (use Simulation.View to
	// fetch the view a validator acts from).
	Node = beacon.Node
	// SafetyViolation describes a detected conflicting finalization.
	SafetyViolation = sim.SafetyViolation
	// EpochMetrics snapshots aggregate honest-view state per epoch
	// (Simulation.MetricsAt).
	EpochMetrics = sim.EpochMetrics
	// MetricsRecorder accumulates per-epoch metrics via its Hook.
	MetricsRecorder = sim.Recorder
	// SimSnapshot is a frozen deep copy of a simulation's full protocol
	// state: take one with Simulation.Snapshot, rewind or fan out
	// continuations with Simulation.Restore — long runs become
	// resumable and same-config sweeps warm-start from a shared prefix.
	SimSnapshot = sim.Snapshot

	// DoubleVoter is the Scenario 5.2.1 adversary.
	DoubleVoter = behavior.DoubleVoter
	// SemiActive is the Scenario 5.2.2 / 5.2.3 adversary.
	SemiActive = behavior.SemiActive
	// Bouncer is the Scenario 5.3 adversary.
	Bouncer = behavior.Bouncer
)

// The kinds of SimMessage: a block, one validator's attestation (its
// Batch lists exactly that validator), or a batch.
const (
	BlockMessage       = sim.BlockMessage
	AttestationMessage = sim.AttestationMessage
	BatchMessage       = sim.BatchMessage
)

// NewSimulation builds a protocol simulation from cfg.
func NewSimulation(cfg SimConfig) (*Simulation, error) { return sim.New(cfg) }

// NewBouncer builds the bouncing adversary with the paper's p0 parameter
// and partition representatives used to locate the fork at GST.
func NewBouncer(p0 float64, seed int64, reps [2]ValidatorIndex) *Bouncer {
	return behavior.NewBouncer(p0, seed, reps)
}
