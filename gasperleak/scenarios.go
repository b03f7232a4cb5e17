package gasperleak

import "repro/internal/core"

// Re-exported paper-scale scenario engines.
type (
	// LeakSim is the aggregate two-branch inactivity-leak simulation in
	// exact integer arithmetic.
	LeakSim = core.LeakSim
	// LeakResult reports a LeakSim run.
	LeakResult = core.Result
	// BranchResult reports one branch of a LeakSim run.
	BranchResult = core.BranchResult
	// BranchTrace samples one branch's state.
	BranchTrace = core.BranchTrace
	// ByzMode selects the Byzantine strategy of a leak scenario.
	ByzMode = core.ByzMode
	// BounceMC is the per-validator bouncing-attack Monte-Carlo.
	BounceMC = core.BounceMC
	// BouncePoint samples the bouncing attack state.
	BouncePoint = core.BouncePoint
)

// Byzantine strategies for LeakSim.
const (
	// ByzAbsent is Scenario 5.1 (honest only).
	ByzAbsent = core.ByzAbsent
	// ByzDoubleVote is Scenario 5.2.1.
	ByzDoubleVote = core.ByzDoubleVote
	// ByzSemiActive is Scenarios 5.2.2 / 5.2.3.
	ByzSemiActive = core.ByzSemiActive
)
