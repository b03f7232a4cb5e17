package types

import (
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestSlotEpoch(t *testing.T) {
	tests := []struct {
		slot Slot
		want Epoch
	}{
		{0, 0},
		{1, 0},
		{31, 0},
		{32, 1},
		{63, 1},
		{64, 2},
		{320, 10},
	}
	for _, tt := range tests {
		if got := tt.slot.Epoch(); got != tt.want {
			t.Errorf("Slot(%d).Epoch() = %d, want %d", tt.slot, got, tt.want)
		}
	}
}

func TestEpochStartEndSlot(t *testing.T) {
	tests := []struct {
		epoch Epoch
		start Slot
		end   Slot
	}{
		{0, 0, 31},
		{1, 32, 63},
		{10, 320, 351},
	}
	for _, tt := range tests {
		if got := tt.epoch.StartSlot(); got != tt.start {
			t.Errorf("Epoch(%d).StartSlot() = %d, want %d", tt.epoch, got, tt.start)
		}
		if got := tt.epoch.EndSlot(); got != tt.end {
			t.Errorf("Epoch(%d).EndSlot() = %d, want %d", tt.epoch, got, tt.end)
		}
	}
}

func TestSlotEpochRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		s := Slot(raw)
		e := s.Epoch()
		return e.StartSlot() <= s && s <= e.EndSlot()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsEpochStart(t *testing.T) {
	if !Slot(0).IsEpochStart() {
		t.Error("slot 0 should be an epoch start")
	}
	if !Slot(32).IsEpochStart() {
		t.Error("slot 32 should be an epoch start")
	}
	if Slot(33).IsEpochStart() {
		t.Error("slot 33 should not be an epoch start")
	}
}

func TestPositionInEpoch(t *testing.T) {
	if got := Slot(0).PositionInEpoch(); got != 0 {
		t.Errorf("PositionInEpoch(0) = %d", got)
	}
	if got := Slot(63).PositionInEpoch(); got != 31 {
		t.Errorf("PositionInEpoch(63) = %d", got)
	}
}

func TestGweiETHConversion(t *testing.T) {
	if got := MaxEffectiveBalanceGwei.ETH(); got != 32 {
		t.Errorf("MaxEffectiveBalance.ETH() = %v, want 32", got)
	}
	if got := EjectionBalanceGwei.ETH(); got != 16.75 {
		t.Errorf("EjectionBalance.ETH() = %v, want 16.75", got)
	}
}

func TestGweiSaturatingSub(t *testing.T) {
	tests := []struct {
		g, d, want Gwei
	}{
		{10, 3, 7},
		{10, 10, 0},
		{10, 11, 0},
		{0, 1, 0},
	}
	for _, tt := range tests {
		if got := tt.g.SaturatingSub(tt.d); got != tt.want {
			t.Errorf("%d.SaturatingSub(%d) = %d, want %d", tt.g, tt.d, got, tt.want)
		}
	}
}

func TestSaturatingSubNeverWraps(t *testing.T) {
	f := func(a, b uint64) bool {
		got := Gwei(a).SaturatingSub(Gwei(b))
		if b >= a {
			return got == 0
		}
		return got == Gwei(a-b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRootFromUint64(t *testing.T) {
	a := RootFromUint64(1)
	b := RootFromUint64(2)
	if a == b {
		t.Error("distinct inputs must produce distinct roots")
	}
	if a.IsZero() {
		t.Error("RootFromUint64(1) should not be zero")
	}
	if !(Root{}).IsZero() {
		t.Error("zero root should report IsZero")
	}
}

func TestRootString(t *testing.T) {
	r := RootFromUint64(0xdeadbeef)
	if got := r.String(); got != "0x00000000" {
		t.Errorf("Root.String() = %q, want first 4 big-endian bytes", got)
	}
}

func TestCheckpointString(t *testing.T) {
	c := Checkpoint{Epoch: 3, Root: RootFromUint64(7)}
	if got := c.String(); got == "" {
		t.Error("Checkpoint.String() should be non-empty")
	}
	if !(Checkpoint{}).IsZero() {
		t.Error("zero checkpoint should report IsZero")
	}
	if c.IsZero() {
		t.Error("non-zero checkpoint should not report IsZero")
	}
}

func TestPaperConstants(t *testing.T) {
	// Pin the constants the paper's analysis depends on.
	if InactivityPenaltyQuotient != 67108864 {
		t.Errorf("InactivityPenaltyQuotient = %d, want 2^26", InactivityPenaltyQuotient)
	}
	if InactivityScoreBias != 4 || InactivityScoreRecovery != 1 {
		t.Error("inactivity score update rule must be +4 / -1 per the paper")
	}
	if MinEpochsToInactivityLeak != 4 {
		t.Error("leak must start after 4 epochs without finalization")
	}
	if SlotsPerEpoch != 32 {
		t.Error("an epoch must be 32 slots")
	}
}

// rootHex renders a whole root (Root.String abbreviates).
func rootHex(r Root) string { return hex.EncodeToString(r[:]) }

// The known answers below are SHA-256 over the big-endian fields. Block
// roots feed every snapshot frame, so these hashes may not drift.

func TestHashItemsInjectiveOnSamples(t *testing.T) {
	seen := map[Root][3]uint64{}
	for s := uint64(0); s < 10; s++ {
		for p := uint64(0); p < 10; p++ {
			r := HashItems(s, p, s+p)
			if prev, ok := seen[r]; ok {
				t.Fatalf("collision between %v and [%d %d %d]", prev, s, p, s+p)
			}
			seen[r] = [3]uint64{s, p, s + p}
		}
	}
	if got, want := rootHex(HashItems(1, 2, 3)), "ca73761ddabfffcbe51170be0b07f67bafcdbed202545c60707573d36dc935b4"; got != want {
		t.Errorf("HashItems(1, 2, 3) = %s, want %s", got, want)
	}
}

func TestHashItemsOrderSensitive(t *testing.T) {
	if HashItems(1, 2) == HashItems(2, 1) {
		t.Error("HashItems must be order sensitive")
	}
	if got, want := rootHex(HashItems(1, 2)), "8c7654ecfd7b0b623b803e2f4e02ad1cc84278efdfcd7c4c9208edd81f17e115"; got != want {
		t.Errorf("HashItems(1, 2) = %s, want %s", got, want)
	}
}

func TestHashRoots(t *testing.T) {
	a := RootFromUint64(1)
	b := RootFromUint64(2)
	if HashRoots(0, a, b) == HashRoots(0, b, a) {
		t.Error("HashRoots must be order sensitive")
	}
	if HashRoots(0, a) == HashRoots(1, a) {
		t.Error("HashRoots must be tag sensitive")
	}
	if got, want := rootHex(HashRoots(7, a, b)), "d4f8d61dadc725a176b39fae770f0c1930069552bd19a21d06769b5a5fbed665"; got != want {
		t.Errorf("HashRoots(7, 1, 2) = %s, want %s", got, want)
	}
}

// TestHashNoAlloc: the product calls (three and four items, one root) hash
// from a stack buffer, and the longer inputs that fall back to the heap
// still produce the digests the heap-only code wrote.
func TestHashNoAlloc(t *testing.T) {
	a, b := RootFromUint64(1), RootFromUint64(2)
	var sink Root
	for name, f := range map[string]func(){
		"HashItems/3": func() { sink = HashItems(1, 2, 3) },
		"HashItems/4": func() { sink = HashItems(1, 2, 3, 4) },
		"HashRoots/1": func() { sink = HashRoots(7, a) },
		"HashRoots/2": func() { sink = HashRoots(7, a, b) },
	} {
		if got := testing.AllocsPerRun(100, f); got != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, got)
		}
	}
	_ = sink
	for _, tc := range []struct {
		name, got, want string
	}{
		{"HashItems(1, 2, 3, 4)", rootHex(HashItems(1, 2, 3, 4)), "7236c00c170036c6de133a878210ddd58567aa1d0619a0f70f69e38ae6f916e9"},
		{"HashItems(1, 2, 3, 4, 5)", rootHex(HashItems(1, 2, 3, 4, 5)), "4e15d2caf66cf04c7317d4c0084cb332d16d647d01d549de18eac2ce5e2e0be5"},
		{"HashItems()", rootHex(HashItems()), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"HashRoots(7)", rootHex(HashRoots(7)), "a3eb8db89fc5123ccfd49585059f292bc40a1c0d550b860f24f84efb4760fbf2"},
		{"HashRoots(7, 1, 2, 3)", rootHex(HashRoots(7, a, b, RootFromUint64(3))), "02db0155d320259da35b53a64ca2466fdbac4aec6967d8600f5ddd21d7e14851"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}
