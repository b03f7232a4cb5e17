package forkchoice_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/forkchoice"
	"repro/internal/types"
)

// encodeEngine serializes e through WalkEngine.
func encodeEngine(t testing.TB, e forkchoice.Engine) []byte {
	t.Helper()
	var b bytes.Buffer
	c := codec.NewEncoder(&b)
	if forkchoice.WalkEngine(c, &e); c.Err() != nil {
		t.Fatal(c.Err())
	}
	return b.Bytes()
}

// decodeEngine walks frame into an engine.
func decodeEngine(frame []byte) (forkchoice.Engine, error) {
	var e forkchoice.Engine
	c := codec.NewDecoder(bytes.NewReader(frame))
	forkchoice.WalkEngine(c, &e)
	return e, c.Err()
}

// votedEngine is a proto-array after a short randomized run: n validators,
// most of them voting on blocks of a random tree, a few of them ejected.
func votedEngine(t testing.TB, n int) *forkchoice.ProtoArray {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	tree, roots := randomTree(rng, 40)
	p := new(forkchoice.ProtoArray)
	p.UpdateStakes(n, func(v types.ValidatorIndex) types.Gwei {
		if v%7 == 0 {
			return 0
		}
		return 32_000_000_000 - types.Gwei(v)
	})
	for v := 0; v < n-n/5; v++ {
		p.Process(types.ValidatorIndex(v), roots[rng.Intn(len(roots))], types.Slot(rng.Intn(64)+1))
	}
	if _, err := p.Head(tree, tree.Genesis()); err != nil {
		t.Fatal(err)
	}
	return p
}

// A frame is the engine tag, a 4-byte validator count, a row per validator
// and the vote count. A row is the vote's root, its slot, the has-vote
// byte and the stake.
const (
	rowsAt  = 1 + 4
	rowSize = 32 + 8 + 1 + 8
	slotAt  = 32
	hasAt   = 32 + 8
)

// unstableRows are frames of votedEngine(48) with one row edited into a
// shape no engine encodes, by name: decoding either would lose a byte on
// re-encoding (the root of a row without a vote is no id's; a slot past 32
// bits does not fit the slot column), so both must be corrupt.
func unstableRows(t testing.TB) []namedFrame {
	t.Helper()
	frame := encodeEngine(t, votedEngine(t, 48))
	row := func(has byte) int {
		for at := rowsAt; at+rowSize <= len(frame); at += rowSize {
			if frame[at+hasAt] == has {
				return at
			}
		}
		t.Fatalf("no row with has-vote %d", has)
		return 0
	}
	noVote := bytes.Clone(frame)
	noVote[row(0)+7] = 1
	farSlot := bytes.Clone(frame)
	binary.LittleEndian.PutUint64(farSlot[row(1)+slotAt:], 1<<32)
	return []namedFrame{{"no-vote-with-root", noVote}, {"slot-past-32-bits", farSlot}}
}

// distinctRoots is the frame of n validators, each voting for a root no
// other votes for: a decode that interns them must hold n ids at once.
func distinctRoots(t testing.TB, n int) namedFrame {
	t.Helper()
	p := new(forkchoice.ProtoArray)
	p.UpdateStakes(n, flatStake)
	for v := 0; v < n; v++ {
		p.Process(types.ValidatorIndex(v), types.RootFromUint64(1<<32+uint64(v)), 1)
	}
	return namedFrame{"distinct-roots", encodeEngine(t, p)}
}

type namedFrame struct {
	name  string
	frame []byte
}

// FuzzDecodeEngine: any input either decodes into an engine that
// re-encodes to the bytes it consumed, or is rejected with codec.ErrCorrupt
// and a nil Engine — never a panic — and decoding allocates at most twice
// the input plus 1 MiB. A validator is 49 encoded bytes and 30 bytes across
// the engine's seven columns, each allocated once, beside a table of the
// distinct roots voted for: 0.62-0.82x measured on valid frames of 10^3 to
// 10^5 validators (1.29-1.43x while a row held its root). The named seed
// distinct-roots, 10^4 rows of as many roots, reads 1.3x; grown by append
// and renumbered as a run's table is, it read 6x.
func FuzzDecodeEngine(f *testing.F) {
	f.Add(encodeEngine(f, votedEngine(f, 48)))
	f.Add(binary.LittleEndian.AppendUint32([]byte{1}, 1<<20))
	for _, seed := range append(unstableRows(f), distinctRoots(f, 10000)) {
		f.Add(seed.frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := decodeEngine(frame)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*uint64(len(frame))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(frame), grew)
		}
		if err != nil {
			if e != nil || !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("rejected with %v and engine %v, want codec.ErrCorrupt and none", err, e)
			}
			return
		}
		if out := encodeEngine(t, e); len(out) > len(frame) || !bytes.Equal(out, frame[:len(out)]) {
			t.Fatalf("accepted %d bytes that re-encode differently (%d bytes)", len(frame), len(out))
		}
	})
}

// TestDecodeEngineRejectsVoteCountMismatch: the frame's closing vote count
// must equal the validators it marks as voted; one off is corrupt, and the
// failure is a nil Engine.
func TestDecodeEngineRejectsVoteCountMismatch(t *testing.T) {
	frame := encodeEngine(t, votedEngine(t, 48))
	at := len(frame) - 8
	voted := binary.LittleEndian.Uint64(frame[at:])
	for _, lie := range []uint64{voted - 1, voted + 1} {
		binary.LittleEndian.PutUint64(frame[at:], lie)
		if e, err := decodeEngine(frame); e != nil || !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("a vote count of %d for %d votes decoded to %v, %v; want nil and codec.ErrCorrupt", lie, voted, e, err)
		}
	}
}

// TestDecodeEngineRejectsUnstableRows: each of unstableRows decodes to
// codec.ErrCorrupt and a nil Engine, while the frame it was edited from
// decodes.
func TestDecodeEngineRejectsUnstableRows(t *testing.T) {
	if _, err := decodeEngine(encodeEngine(t, votedEngine(t, 48))); err != nil {
		t.Fatalf("unedited frame: %v", err)
	}
	for _, seed := range unstableRows(t) {
		if e, err := decodeEngine(seed.frame); e != nil || !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: decoded to %T, %v; want nil and codec.ErrCorrupt", seed.name, e, err)
		}
	}
}

// TestFarSlotsAreHeldAtTheLast: a vote slot past 32 bits is held as the
// last 32-bit slot, where the first vote to reach it stands, and the engine
// still encodes to a frame that decodes. A frame's held attestations are
// not bounded by the fork-choice decode, so such a vote must not panic.
func TestFarSlotsAreHeldAtTheLast(t *testing.T) {
	p := new(forkchoice.ProtoArray)
	p.UpdateStakes(2, flatStake)
	first, later := types.RootFromUint64(1), types.RootFromUint64(2)
	if n := p.ProcessBatch([]types.ValidatorIndex{0, 1}, first, 1<<40); n != 2 {
		t.Fatalf("first far vote replaced %d, want 2", n)
	}
	if n := p.ProcessBatch([]types.ValidatorIndex{0}, later, 1<<40+1); n != 0 {
		t.Fatalf("a later far vote replaced %d, want 0", n)
	}
	if m, ok := p.Latest(0); !ok || m.Root != first || m.Slot != math.MaxUint32 {
		t.Fatalf("Latest(0) = %x@%d/%v, want the first root at slot 2^32-1", m.Root[:], m.Slot, ok)
	}
	if _, err := decodeEngine(encodeEngine(t, p)); err != nil {
		t.Fatal(err)
	}
}
