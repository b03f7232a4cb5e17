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
	cols Columns
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
	r.cols.Stakes = append(r.cols.Stakes[:0], make([]types.Gwei, n)...)
	r.cols.Scores = append(r.cols.Scores[:0], make([]uint64, n)...)
	r.cols.Status = append(r.cols.Status[:0], make([]Status, n)...)
	r.cols.Exit = append(r.cols.Exit[:0], make([]types.Epoch, n)...)
	for i := 0; i < n; i++ {
		r.cols.Stakes[i] = stake
		r.cols.Exit[i] = types.FarFutureEpoch
	}
}

// Clone returns a deep copy; branch simulations fork the registry at the
// partition point.
func (r *Registry) Clone() *Registry {
	out := &Registry{cols: Columns{
		Stakes: make([]types.Gwei, len(r.cols.Stakes)),
		Scores: make([]uint64, len(r.cols.Scores)),
		Status: make([]Status, len(r.cols.Status)),
		Exit:   make([]types.Epoch, len(r.cols.Exit)),
	}}
	copy(out.cols.Stakes, r.cols.Stakes)
	copy(out.cols.Scores, r.cols.Scores)
	copy(out.cols.Status, r.cols.Status)
	copy(out.cols.Exit, r.cols.Exit)
	return out
}

// Len returns the number of validators ever registered (including exited).
func (r *Registry) Len() int { return len(r.cols.Stakes) }

// Columns exposes the registry's columnar storage: the incentive engine's
// epoch sweep writes these slices directly, and the snapshot codec walks
// them. It is the registry's own Columns, not a copy: a caller writes the
// slices' elements, never the headers, and a sweep over a three-row
// registry builds no 96-byte Columns per call.
func (r *Registry) Columns() *Columns { return &r.cols }

// Stake returns the stake of v, or zero if v is unknown or out of the set.
// Fork choice and FFG quorums weigh only in-set validators.
func (r *Registry) Stake(v types.ValidatorIndex) types.Gwei {
	if int(v) >= len(r.cols.Stakes) || r.cols.Status[v] != Active {
		return 0
	}
	return r.cols.Stakes[v]
}

// Slash marks v slashed at epoch e, applies the immediate slashing penalty
// (stake / WhistleblowerQuotient), and removes v from the set.
func (r *Registry) Slash(v types.ValidatorIndex, e types.Epoch) error {
	if int(v) >= len(r.cols.Stakes) {
		return fmt.Errorf("%w: %d", ErrUnknownValidator, v)
	}
	if r.cols.Status[v] == Slashed {
		return nil // idempotent
	}
	r.cols.Stakes[v] = r.cols.Stakes[v].SaturatingSub(r.cols.Stakes[v] / types.WhistleblowerQuotient)
	r.cols.Status[v] = Slashed
	r.cols.Exit[v] = e
	return nil
}

// TotalStake sums the stake of all in-set validators.
func (r *Registry) TotalStake() types.Gwei {
	var total types.Gwei
	for i, st := range r.cols.Status {
		if st == Active {
			total += r.cols.Stakes[i]
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
