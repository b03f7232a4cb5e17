package sim

import "repro/internal/types"

// EpochMetrics snapshots the aggregate state of all honest views at one
// epoch boundary — the time series the paper's figures are made of. The
// values are defined over honest validators; since every validator in a
// cohort holds the cohort's view, the kernel computes them once per cohort
// and weighs counts by membership, which is bit-identical to the
// per-validator definition.
type EpochMetrics struct {
	Epoch types.Epoch
	// MinFinalized / MaxFinalized are the extremes of honest nodes'
	// finalized epochs (their divergence signals partitioned finality).
	MinFinalized, MaxFinalized types.Epoch
	// MaxJustified is the highest justified epoch across honest views.
	MaxJustified types.Epoch
	// InLeak counts honest validators whose view is currently in an
	// inactivity leak.
	InLeak int
	// MinTotalStake / MaxTotalStake bound the per-view total in-set
	// stake.
	MinTotalStake, MaxTotalStake types.Gwei
	// MaxByzProportion is the highest Byzantine stake proportion across
	// honest views.
	MaxByzProportion float64
}

// MetricsAt computes the metrics for the current state at the given epoch.
// (It was named Snapshot before run-state snapshotting existed; Snapshot
// now captures full protocol state for Restore.)
func (s *Simulation) MetricsAt(epoch types.Epoch) EpochMetrics {
	m := EpochMetrics{Epoch: epoch}
	first := true
	for _, c := range s.cohorts {
		if c.Byzantine || len(c.Members) == 0 {
			continue
		}
		n := c.Node
		fin := n.Finalized().Epoch
		just := n.FFG.LatestJustified().Epoch
		total := n.TotalStake()
		if first {
			m.MinFinalized, m.MaxFinalized = fin, fin
			m.MinTotalStake, m.MaxTotalStake = total, total
			first = false
		}
		if fin < m.MinFinalized {
			m.MinFinalized = fin
		}
		if fin > m.MaxFinalized {
			m.MaxFinalized = fin
		}
		if just > m.MaxJustified {
			m.MaxJustified = just
		}
		if total < m.MinTotalStake {
			m.MinTotalStake = total
		}
		if total > m.MaxTotalStake {
			m.MaxTotalStake = total
		}
		if n.FFG.InLeak(epoch, s.Cfg.Spec) {
			m.InLeak += len(c.Members)
		}
		if p := s.byzantineProportionIn(n.Registry, total); p > m.MaxByzProportion {
			m.MaxByzProportion = p
		}
	}
	return m
}

// Recorder accumulates per-epoch metrics; install its Hook as
// Config.OnEpoch.
type Recorder struct {
	History []EpochMetrics
}

// Hook is the Config.OnEpoch callback.
func (r *Recorder) Hook(s *Simulation, epoch types.Epoch) {
	r.History = append(r.History, s.MetricsAt(epoch))
}
