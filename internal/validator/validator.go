// Package validator maintains the validator registry: per-validator stake,
// inactivity score, and life-cycle status (active, slashed, ejected).
//
// A registry is the balance sheet of one branch. During a fork each branch
// evaluates activity — and therefore penalties, scores, and ejections — on
// its own, so branch simulations clone one registry per branch (paper
// Section 4.1: "if there are multiple branches, a validator's inactivity
// score depends on the selected branch").
//
// The registry is stored column-wise (struct of arrays): flat stake, score,
// status, and exit-epoch slices. Epoch-boundary incentive processing is a
// linear sweep over these columns with no per-validator allocation, which
// is what lets one materialized view serve a paper-scale cohort (see
// internal/sim).
package validator

import (
	"errors"
	"fmt"

	"repro/internal/types"
)

// ErrUnknownValidator is returned for out-of-range indices.
var ErrUnknownValidator = errors.New("validator: unknown validator index")

// Status is the life-cycle state of a validator. It is a byte: the
// registry holds one per validator in a column every snapshot copies.
type Status uint8

// Life-cycle states.
const (
	// Active validators attest and their stake counts toward quorums.
	Active Status = iota
	// Slashed validators were ejected for a provable offense.
	Slashed
	// Ejected validators dropped below the ejection balance during a
	// leak and left the validator set.
	Ejected
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Slashed:
		return "slashed"
	case Ejected:
		return "ejected"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Registry is the mutable validator set of one branch view, stored as
// columns. The zero value is an empty registry; Reset populates it.
type Registry struct {
	stakes []types.Gwei
	scores []uint64
	status []Status
	exit   []types.Epoch
}

// Columns is a writable view of the registry's storage, handed to the
// incentives engine for allocation-free epoch sweeps. The slices alias the
// registry; mutating them mutates the registry. All four have equal length.
type Columns struct {
	Stakes []types.Gwei
	Scores []uint64
	Status []Status
	Exit   []types.Epoch
}

// Reset makes the registry n validators, each in the set with the given
// initial stake, a zero inactivity score and no exit epoch, in the columns
// it already holds: a registry recycled for a run of no more validators
// than it had allocates nothing.
func (r *Registry) Reset(n int, stake types.Gwei) {
	r.stakes = append(r.stakes[:0], make([]types.Gwei, n)...)
	r.scores = append(r.scores[:0], make([]uint64, n)...)
	r.status = append(r.status[:0], make([]Status, n)...)
	r.exit = append(r.exit[:0], make([]types.Epoch, n)...)
	for i := 0; i < n; i++ {
		r.stakes[i] = stake
		r.exit[i] = types.FarFutureEpoch
	}
}

// Clone returns a deep copy; branch simulations fork the registry at the
// partition point.
func (r *Registry) Clone() *Registry {
	out := &Registry{
		stakes: make([]types.Gwei, len(r.stakes)),
		scores: make([]uint64, len(r.scores)),
		status: make([]Status, len(r.status)),
		exit:   make([]types.Epoch, len(r.exit)),
	}
	copy(out.stakes, r.stakes)
	copy(out.scores, r.scores)
	copy(out.status, r.status)
	copy(out.exit, r.exit)
	return out
}

// Len returns the number of validators ever registered (including exited).
func (r *Registry) Len() int { return len(r.stakes) }

// Columns exposes the registry's columnar storage: the incentive engine's
// epoch sweep writes these slices directly, and the snapshot codec walks
// them.
func (r *Registry) Columns() Columns {
	return Columns{Stakes: r.stakes, Scores: r.scores, Status: r.status, Exit: r.exit}
}

// Stake returns the stake of v, or zero if v is unknown or out of the set.
// Fork choice and FFG quorums weigh only in-set validators.
func (r *Registry) Stake(v types.ValidatorIndex) types.Gwei {
	if int(v) >= len(r.stakes) || r.status[v] != Active {
		return 0
	}
	return r.stakes[v]
}

// Slash marks v slashed at epoch e, applies the immediate slashing penalty
// (stake / WhistleblowerQuotient), and removes v from the set.
func (r *Registry) Slash(v types.ValidatorIndex, e types.Epoch) error {
	if int(v) >= len(r.stakes) {
		return fmt.Errorf("%w: %d", ErrUnknownValidator, v)
	}
	if r.status[v] == Slashed {
		return nil // idempotent
	}
	r.stakes[v] = r.stakes[v].SaturatingSub(r.stakes[v] / types.WhistleblowerQuotient)
	r.status[v] = Slashed
	r.exit[v] = e
	return nil
}

// TotalStake sums the stake of all in-set validators.
func (r *Registry) TotalStake() types.Gwei {
	var total types.Gwei
	for i, st := range r.status {
		if st == Active {
			total += r.stakes[i]
		}
	}
	return total
}

// StakeOf sums the stake of the given in-set validators.
func (r *Registry) StakeOf(indices []types.ValidatorIndex) types.Gwei {
	var total types.Gwei
	for _, v := range indices {
		total += r.Stake(v)
	}
	return total
}
