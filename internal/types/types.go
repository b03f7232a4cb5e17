// Package types defines the primitive protocol types and constants shared by
// every subsystem of the reproduction: slots, epochs, validator indices,
// balances in Gwei, 32-byte roots, and checkpoints.
//
// The constants mirror the values used by the paper "Byzantine Attacks
// Exploiting Penalties in Ethereum PoS" (DSN 2024): an epoch is 32 slots of
// 12 seconds, the inactivity penalty quotient is 2^26, the inactivity score
// bias is +4 per inactive epoch, and validators are ejected once their stake
// falls to 16.75 ETH or below.
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/codec"
)

// Protocol constants as stated in the paper (Sections 3 and 4).
const (
	// SlotsPerEpoch is the number of slots in one epoch.
	SlotsPerEpoch = 32

	// GweiPerETH converts ETH amounts to Gwei.
	GweiPerETH = 1_000_000_000

	// MaxEffectiveBalanceGwei is the initial (and maximum) stake of a
	// validator: 32 ETH.
	MaxEffectiveBalanceGwei Gwei = 32 * GweiPerETH

	// EjectionBalanceGwei is the stake threshold at which a validator is
	// ejected from the validator set. The paper uses "lower or equal than
	// 16.75" ETH (Section 4.3).
	EjectionBalanceGwei Gwei = 16_750_000_000

	// InactivityPenaltyQuotient divides the inactivity-score-weighted
	// stake to produce the per-epoch leak penalty (Equation 2): the
	// penalty at epoch t is I(t-1) * s(t-1) / 2^26.
	InactivityPenaltyQuotient = 1 << 26

	// InactivityScoreBias is added to the inactivity score of a validator
	// deemed inactive for an epoch (Equation 1).
	InactivityScoreBias = 4

	// InactivityScoreRecovery is subtracted from the inactivity score of
	// a validator deemed active for an epoch (Equation 1).
	InactivityScoreRecovery = 1

	// InactivityScoreFlatRecovery is the additional reduction applied to
	// all inactivity scores each epoch while the chain is NOT in an
	// inactivity leak (Section 4.1: "every epoch the inactivity scores
	// are decreased by 16").
	InactivityScoreFlatRecovery = 16

	// MinEpochsToInactivityLeak is the number of consecutive epochs
	// without finalization after which the inactivity leak begins
	// (Section 3.3).
	MinEpochsToInactivityLeak = 4

	// WhistleblowerQuotient scales the immediate slashing penalty: a
	// slashed validator immediately loses stake/32 (a simplification of
	// the spec's minimum slashing penalty, sufficient for the paper's
	// scenarios where slashing implies ejection).
	WhistleblowerQuotient = 32

	// FarFutureEpoch marks "no epoch": used for validators that have not
	// exited.
	FarFutureEpoch Epoch = 1<<64 - 1
)

// Slot is a 12-second protocol time unit. Slot 0 is the genesis slot.
type Slot uint64

// Epoch is a 32-slot protocol time unit. Epoch 0 contains slots 0..31.
type Epoch uint64

// ValidatorIndex identifies a validator within the registry.
type ValidatorIndex uint64

// Gwei is a stake amount in 10^-9 ETH.
type Gwei uint64

// Root is a 32-byte identifier for a block (or any hashed object).
type Root [32]byte

// Epoch returns the epoch containing s.
func (s Slot) Epoch() Epoch { return Epoch(uint64(s) / SlotsPerEpoch) }

// PositionInEpoch returns the index of s within its epoch, in [0, 31].
func (s Slot) PositionInEpoch() uint64 { return uint64(s) % SlotsPerEpoch }

// IsEpochStart reports whether s is the first slot of its epoch.
func (s Slot) IsEpochStart() bool { return uint64(s)%SlotsPerEpoch == 0 }

// StartSlot returns the first slot of epoch e.
func (e Epoch) StartSlot() Slot { return Slot(uint64(e) * SlotsPerEpoch) }

// EndSlot returns the last slot of epoch e.
func (e Epoch) EndSlot() Slot { return Slot(uint64(e)*SlotsPerEpoch + SlotsPerEpoch - 1) }

// ETH returns the amount in ETH as a float64, for reporting and for
// comparison with the paper's continuous model.
func (g Gwei) ETH() float64 { return float64(g) / GweiPerETH }

// SaturatingSub returns g-d, saturating at zero rather than wrapping.
func (g Gwei) SaturatingSub(d Gwei) Gwei {
	if d >= g {
		return 0
	}
	return g - d
}

// String renders the root as an abbreviated hex string.
func (r Root) String() string {
	return "0x" + hex.EncodeToString(r[:4])
}

// IsZero reports whether the root is all zero bytes.
func (r Root) IsZero() bool { return r == Root{} }

// RootFromUint64 builds a deterministic root from an integer; used by tests
// and by the simulator's deterministic block identifiers.
func RootFromUint64(v uint64) Root {
	var r Root
	binary.BigEndian.PutUint64(r[:8], v)
	return r
}

// HashItems produces a root from a sequence of integer fields; the
// simulator uses it to mint deterministic block roots from (slot, proposer,
// parent) triples. Up to four items hash from a stack buffer.
func HashItems(items ...uint64) Root {
	var stack [4 * 8]byte
	buf := stack[:]
	if len(items) > 4 {
		buf = make([]byte, 8*len(items))
	}
	buf = buf[:8*len(items)]
	for i, v := range items {
		binary.BigEndian.PutUint64(buf[i*8:], v)
	}
	return sha256.Sum256(buf)
}

// HashRoots produces a root binding a sequence of roots together with a
// leading tag, used for vote digests. Up to two roots hash from a stack
// buffer.
func HashRoots(tag uint64, roots ...Root) Root {
	var stack [8 + 2*32]byte
	buf := stack[:]
	if len(roots) > 2 {
		buf = make([]byte, 8+32*len(roots))
	}
	buf = buf[:8+32*len(roots)]
	binary.BigEndian.PutUint64(buf[:8], tag)
	for i, r := range roots {
		copy(buf[8+32*i:], r[:])
	}
	return sha256.Sum256(buf)
}

// Checkpoint is a (block, epoch) pair: the block of the first slot of the
// epoch, as seen by a given chain (Section 3.1).
type Checkpoint struct {
	Epoch Epoch
	Root  Root
}

// String renders the checkpoint for logs and error messages.
func (c Checkpoint) String() string {
	return fmt.Sprintf("checkpoint(epoch=%d root=%s)", c.Epoch, c.Root)
}

// IsZero reports whether c is the zero checkpoint.
func (c Checkpoint) IsZero() bool { return c.Epoch == 0 && c.Root.IsZero() }

// Walk moves the checkpoint for the snapshot codec: its epoch, then its
// root.
func (c *Checkpoint) Walk(cd *codec.Coder) {
	cd.U64((*uint64)(&c.Epoch))
	cd.Raw(c.Root[:])
}
