package sim

import (
	"math"

	"repro/internal/forkchoice"
	"repro/internal/refmodel"
)

// ReferenceMode is one cell of the 2×2 matrix the equivalence tests walk:
// view layout (cohorts, or one singleton view per validator as before the
// cohort kernel) × fork-choice engine (forkchoice.ProtoArray, or the
// map-based refmodel.Oracle).
type ReferenceMode struct {
	Name                        string
	PerValidator, MapForkChoice bool
}

// ReferenceModes is the whole matrix, the product simulator first.
var ReferenceModes = []ReferenceMode{
	{"cohort+proto-array", false, false},
	{"cohort+map-oracle", false, true},
	{"per-validator+proto-array", true, false},
	{"per-validator+map-oracle", true, true},
}

// Config returns cfg set to build the mode's simulator. It is the only way
// anything sets Config.reference.
func (m ReferenceMode) Config(cfg Config) Config {
	cfg.reference = reference{singletons: m.PerValidator}
	if m.MapForkChoice {
		cfg.reference.engine = func() forkchoice.Engine { return refmodel.NewOracle() }
	}
	return cfg
}

// WithLanes returns cfg set to step its epochs lane by lane wherever lanes
// apply, whatever its size (on), or always as one lane (off). Apply it after
// ReferenceMode.Config, which sets the whole reference.
func WithLanes(cfg Config, on bool) Config {
	cfg.reference.laneMin = math.MaxInt
	if on {
		cfg.reference.laneMin = 1
	}
	return cfg
}

// EmbargoedCohorts reports the cohorts that hold a live proposer embargo.
func EmbargoedCohorts(s *Simulation) map[int]bool {
	held := map[int]bool{}
	for _, e := range s.embargoes {
		held[e.cohort] = true
	}
	return held
}
