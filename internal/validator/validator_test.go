package validator

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

// newRegistry is a registry of n in-set validators holding stake each,
// built the way a simulation builds its views.
func newRegistry(n int, stake types.Gwei) *Registry {
	r := new(Registry)
	r.Reset(n, stake)
	return r
}

func TestNewRegistry(t *testing.T) {
	r := newRegistry(10, types.MaxEffectiveBalanceGwei)
	if r.Len() != 10 {
		t.Fatalf("Len = %d, want 10", r.Len())
	}
	if got := r.TotalStake(); got != 10*types.MaxEffectiveBalanceGwei {
		t.Errorf("TotalStake = %d, want %d", got, 10*types.MaxEffectiveBalanceGwei)
	}
	cols := r.Columns()
	if cols.Stakes[3] != types.MaxEffectiveBalanceGwei || cols.Scores[3] != 0 || cols.Status[3] != Active {
		t.Errorf("unexpected validator: stake %d score %d status %v", cols.Stakes[3], cols.Scores[3], cols.Status[3])
	}
	if cols.Exit[3] != types.FarFutureEpoch {
		t.Error("fresh validator must have far-future exit epoch")
	}
	// A recycled registry is rebuilt at genesis in its own columns.
	cols.Scores[3], cols.Status[4] = 9, Slashed
	first := &cols.Stakes[0]
	r.Reset(5, 100)
	if r.Len() != 5 || r.TotalStake() != 500 || r.Columns().Scores[3] != 0 {
		t.Errorf("Reset kept state: len %d total %d score %d", r.Len(), r.TotalStake(), r.Columns().Scores[3])
	}
	if &r.Columns().Stakes[0] != first {
		t.Error("Reset to fewer validators must reuse the columns")
	}
}

func TestSlash(t *testing.T) {
	r := newRegistry(2, 3200)
	if err := r.Slash(0, 7); err != nil {
		t.Fatal(err)
	}
	cols := r.Columns()
	if cols.Status[0] != Slashed || cols.Exit[0] != 7 {
		t.Errorf("after slash: status %v exit %d", cols.Status[0], cols.Exit[0])
	}
	// Immediate penalty is stake/32.
	if cols.Stakes[0] != 3200-100 {
		t.Errorf("slashed stake = %d, want 3100", cols.Stakes[0])
	}
	// Slashed validators no longer count toward quorums.
	if r.Stake(0) != 0 {
		t.Errorf("Stake of slashed = %d, want 0", r.Stake(0))
	}
	// Idempotent.
	if err := r.Slash(0, 9); err != nil {
		t.Fatal(err)
	}
	if cols.Exit[0] != 7 || cols.Stakes[0] != 3100 {
		t.Errorf("second slash must be a no-op: exit %d stake %d", cols.Exit[0], cols.Stakes[0])
	}
	if err := r.Slash(9, 1); !errors.Is(err, ErrUnknownValidator) {
		t.Errorf("want ErrUnknownValidator, got %v", err)
	}
}

// TestEject: a validator the incentive sweep ejects (its status column set
// to Ejected) keeps its balance but no longer counts toward quorums.
func TestEject(t *testing.T) {
	r := newRegistry(2, 32)
	r.Columns().Status[1] = Ejected
	if r.Stake(1) != 0 || r.StakeOf([]types.ValidatorIndex{0, 1}) != 32 || r.TotalStake() != 32 {
		t.Error("ejected stake must not count")
	}
	if r.Columns().Stakes[1] != 32 {
		t.Error("ejection must not burn the balance")
	}
	if r.Stake(9) != 0 {
		t.Error("unknown index must weigh nothing")
	}
}

func TestTotalStakeExcludesExited(t *testing.T) {
	r := newRegistry(4, 100)
	r.Slash(0, 1)
	r.Columns().Status[1] = Ejected
	if got := r.TotalStake(); got != 200 {
		t.Errorf("TotalStake = %d, want 200", got)
	}
}

// TestStakeOfAndProportion: StakeOf weighs a subset's in-set stake, the
// numerator of every stake proportion the simulation reports.
func TestStakeOfAndProportion(t *testing.T) {
	r := newRegistry(4, 100)
	subset := []types.ValidatorIndex{0, 1}
	if got := r.StakeOf(subset); got != 200 {
		t.Errorf("StakeOf = %d, want 200", got)
	}
	if got := float64(r.StakeOf(subset)) / float64(r.TotalStake()); got != 0.5 {
		t.Errorf("proportion = %v, want 0.5", got)
	}
	r.Slash(1, 0)
	if got := r.StakeOf(subset); got != 100 {
		t.Errorf("StakeOf after slashing one = %d, want 100", got)
	}
	empty := &Registry{}
	if got := empty.StakeOf(subset); got != 0 {
		t.Errorf("empty registry StakeOf = %v, want 0", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := newRegistry(2, 100)
	c := r.Clone()
	c.Columns().Stakes[0] = 50
	c.Columns().Scores[1] = 42
	if r.Stake(0) != 100 {
		t.Error("clone mutation leaked into original stake")
	}
	if r.Columns().Scores[1] != 0 {
		t.Error("clone mutation leaked into original score")
	}
}

func TestStatusString(t *testing.T) {
	if Active.String() != "active" || Slashed.String() != "slashed" || Ejected.String() != "ejected" {
		t.Error("Status.String mismatch")
	}
	if Status(99).String() == "" {
		t.Error("unknown status should still render")
	}
}

func TestTotalStakeInvariantUnderPenalties(t *testing.T) {
	// Property: total stake never increases under any slashing sequence.
	f := func(victims []uint8) bool {
		r := newRegistry(4, 1000)
		prev := r.TotalStake()
		for i, v := range victims {
			r.Slash(types.ValidatorIndex(v%4), types.Epoch(i))
			cur := r.TotalStake()
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- columnar (struct-of-arrays) storage tests ---

// TestColumnsAliasRegistry: Columns exposes the live storage — writes
// through the column view are visible to the registry's sums and vice
// versa.
func TestColumnsAliasRegistry(t *testing.T) {
	r := newRegistry(4, 100)
	cols := r.Columns()
	if len(cols.Stakes) != 4 || len(cols.Scores) != 4 || len(cols.Status) != 4 || len(cols.Exit) != 4 {
		t.Fatalf("column lengths = %d/%d/%d/%d, want 4 each",
			len(cols.Stakes), len(cols.Scores), len(cols.Status), len(cols.Exit))
	}
	cols.Stakes[2] = 55
	if got := r.Stake(2); got != 55 {
		t.Errorf("column write invisible to Stake: %d", got)
	}
	if err := r.Slash(1, 3); err != nil {
		t.Fatal(err)
	}
	if cols.Status[1] != Slashed || cols.Exit[1] != 3 {
		t.Errorf("Slash invisible to the column view: status %v exit %d", cols.Status[1], cols.Exit[1])
	}
	cols.Status[3] = Ejected
	if got := r.TotalStake(); got != 100+55 {
		t.Errorf("status column write must remove the validator from the set: total %d", got)
	}
}

// TestCloneDetachesColumns: a clone's columns are independent storage.
func TestCloneDetachesColumns(t *testing.T) {
	r := newRegistry(3, 100)
	c := r.Clone()
	c.Columns().Stakes[0] = 1
	c.Columns().Scores[1] = 9
	if err := c.Slash(2, 5); err != nil {
		t.Fatal(err)
	}
	cols := r.Columns()
	if cols.Stakes[0] != 100 || cols.Scores[1] != 0 || cols.Status[2] != Active {
		t.Error("mutating a clone leaked into the original")
	}
}
