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
// internal/sim). The row-oriented API (Get, ForEach) is preserved on top of
// the columns.
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

// Validator is one registry row, assembled from the columns on demand.
type Validator struct {
	Index           types.ValidatorIndex
	Stake           types.Gwei
	InactivityScore uint64
	Status          Status
	// ExitEpoch records when the validator left the set;
	// types.FarFutureEpoch while in the set.
	ExitEpoch types.Epoch
}

// InSet reports whether the validator still belongs to the validator set.
func (v Validator) InSet() bool { return v.Status == Active }

// Registry is the mutable validator set of one branch view, stored as
// columns. The zero value is an empty registry; construct populated ones
// with NewRegistry.
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

// NewRegistry creates n validators, each with the given initial stake, all
// active with zero inactivity score.
func NewRegistry(n int, stake types.Gwei) *Registry {
	r := new(Registry)
	r.Reset(n, stake)
	return r
}

// Reset makes the registry the one NewRegistry(n, stake) creates, in the
// columns it already holds: a registry recycled for a run of no more
// validators than it had allocates nothing.
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

// Columns exposes the registry's columnar storage. The incentive engine's
// epoch sweep iterates these slices directly; other callers should prefer
// the row API.
func (r *Registry) Columns() Columns {
	return Columns{Stakes: r.stakes, Scores: r.scores, Status: r.status, Exit: r.exit}
}

// Get returns a copy of the validator at index v.
func (r *Registry) Get(v types.ValidatorIndex) (Validator, error) {
	if int(v) >= len(r.stakes) {
		return Validator{}, fmt.Errorf("%w: %d", ErrUnknownValidator, v)
	}
	return Validator{
		Index:           v,
		Stake:           r.stakes[v],
		InactivityScore: r.scores[v],
		Status:          r.status[v],
		ExitEpoch:       r.exit[v],
	}, nil
}

// Stake returns the stake of v, or zero if v is unknown or out of the set.
// Fork choice and FFG quorums weigh only in-set validators.
func (r *Registry) Stake(v types.ValidatorIndex) types.Gwei {
	if int(v) >= len(r.stakes) || r.status[v] != Active {
		return 0
	}
	return r.stakes[v]
}

// RawStake returns the stake of v regardless of status (slashed validators
// retain their remaining balance until withdrawal; it no longer counts
// toward quorums).
func (r *Registry) RawStake(v types.ValidatorIndex) types.Gwei {
	if int(v) >= len(r.stakes) {
		return 0
	}
	return r.stakes[v]
}

// Score returns the inactivity score of v (zero for unknown indices).
func (r *Registry) Score(v types.ValidatorIndex) uint64 {
	if int(v) >= len(r.scores) {
		return 0
	}
	return r.scores[v]
}

// SetScore sets the inactivity score of v.
func (r *Registry) SetScore(v types.ValidatorIndex, score uint64) {
	if int(v) < len(r.scores) {
		r.scores[v] = score
	}
}

// SetStake overwrites the stake of v (used by tests and by scenario setup).
func (r *Registry) SetStake(v types.ValidatorIndex, s types.Gwei) {
	if int(v) < len(r.stakes) {
		r.stakes[v] = s
	}
}

// Penalize reduces the stake of v by amount, saturating at zero, and
// returns the amount actually removed.
func (r *Registry) Penalize(v types.ValidatorIndex, amount types.Gwei) types.Gwei {
	if int(v) >= len(r.stakes) {
		return 0
	}
	before := r.stakes[v]
	r.stakes[v] = before.SaturatingSub(amount)
	return before - r.stakes[v]
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

// Eject removes v from the set at epoch e for falling below the ejection
// balance.
func (r *Registry) Eject(v types.ValidatorIndex, e types.Epoch) error {
	if int(v) >= len(r.stakes) {
		return fmt.Errorf("%w: %d", ErrUnknownValidator, v)
	}
	if r.status[v] != Active {
		return nil // idempotent
	}
	r.status[v] = Ejected
	r.exit[v] = e
	return nil
}

// InSet reports whether v is currently in the validator set.
func (r *Registry) InSet(v types.ValidatorIndex) bool {
	return int(v) < len(r.status) && r.status[v] == Active
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

// InSetIndices returns the indices of all in-set validators in ascending
// order.
func (r *Registry) InSetIndices() []types.ValidatorIndex {
	out := make([]types.ValidatorIndex, 0, len(r.status))
	for i, st := range r.status {
		if st == Active {
			out = append(out, types.ValidatorIndex(i))
		}
	}
	return out
}

// ForEach calls fn for every validator (in index order), passing a pointer
// to a row assembled from the columns; mutations fn makes are written back.
// Columnar sweeps (incentives) use Columns directly; ForEach remains for
// callers that want row semantics.
func (r *Registry) ForEach(fn func(*Validator)) {
	for i := range r.stakes {
		row := Validator{
			Index:           types.ValidatorIndex(i),
			Stake:           r.stakes[i],
			InactivityScore: r.scores[i],
			Status:          r.status[i],
			ExitEpoch:       r.exit[i],
		}
		fn(&row)
		r.stakes[i] = row.Stake
		r.scores[i] = row.InactivityScore
		r.status[i] = row.Status
		r.exit[i] = row.ExitEpoch
	}
}

// Proportion returns the fraction of total in-set stake held by the given
// validators. Returns zero when the registry is empty.
func (r *Registry) Proportion(indices []types.ValidatorIndex) float64 {
	total := r.TotalStake()
	if total == 0 {
		return 0
	}
	return float64(r.StakeOf(indices)) / float64(total)
}
