package forkchoice_test

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// FuzzDecodeEngine: any input either decodes into an engine that
// re-encodes to the bytes it consumed, or is rejected with codec.ErrCorrupt
// and a nil Engine — never a panic — and decoding allocates at most twice
// the input plus 1 MiB. A validator is 49 encoded bytes and 63 bytes across
// the engine's eight columns, each allocated once: 1.29-1.33x measured on
// valid frames of 10^3 to 10^5 validators.
func FuzzDecodeEngine(f *testing.F) {
	f.Add(encodeEngine(f, votedEngine(f, 48)))
	f.Add(binary.LittleEndian.AppendUint32([]byte{1}, 1<<20))
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
