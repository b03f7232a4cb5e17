package behavior

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/sim"
	"repro/internal/types"
)

// walked is an adversary whose state sim.Snapshot carries.
type walked interface {
	sim.Adversary
	Walk(c *codec.Coder)
}

// encodeState runs the adversary the given epochs under byzConfig (a
// Bouncer past its setup partition) and returns its walked state.
func encodeState(tb testing.TB, adv walked, gst types.Slot, epochs int) []byte {
	tb.Helper()
	cfg := byzConfig(17, adv)
	cfg.GST = gst
	s, err := sim.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.RunEpochs(epochs); err != nil {
		tb.Fatal(err)
	}
	var b bytes.Buffer
	c := codec.NewEncoder(&b)
	if adv.Walk(c); c.Err() != nil {
		tb.Fatal(c.Err())
	}
	return b.Bytes()
}

// decoded is one adversary's decode of a state: the adversary, the bytes
// its walk read and its error.
type decoded struct {
	adv      walked
	consumed int
	err      error
}

// decodeState walks state into a fresh adversary of each kind under the
// given draw bound.
func decodeState(state []byte, bound uint64) map[string]decoded {
	out := map[string]decoded{}
	for name, adv := range map[string]walked{
		"semi-active": &SemiActive{Reps: [2]types.ValidatorIndex{0, 12}, AutoFinalize: true},
		"bouncer":     NewBouncer(0.6, 99, [2]types.ValidatorIndex{0, 12}),
	} {
		src := bytes.NewReader(state)
		c := codec.NewDecoder(src)
		c.Bound(bound)
		adv.Walk(c)
		out[name] = decoded{adv, len(state) - src.Len(), c.Err()}
	}
	return out
}

// FuzzDecodeAdversary: whatever bytes either adversary's state is decoded
// from, its walk does not panic and either refuses them with
// codec.ErrCorrupt or re-encodes exactly the bytes it read. The bound
// admits every draw count: a decode replays no draw, so no count costs
// time here (sim's restore bounds it by the run). Seeded with the state of
// a SemiActive past its gait and of a Bouncer mid-attack.
func FuzzDecodeAdversary(f *testing.F) {
	f.Add(encodeState(f, &SemiActive{Reps: [2]types.ValidatorIndex{0, 12}, AutoFinalize: true}, 1<<30, 24))
	f.Add(encodeState(f, NewBouncer(0.6, 99, [2]types.ValidatorIndex{0, 12}), 3*32, 8))
	f.Fuzz(func(t *testing.T, state []byte) {
		for name, d := range decodeState(state, math.MaxUint64) {
			if d.err != nil {
				if !errors.Is(d.err, codec.ErrCorrupt) {
					t.Fatalf("%s: decode error %v, want codec.ErrCorrupt", name, d.err)
				}
				continue
			}
			var out bytes.Buffer
			c := codec.NewEncoder(&out)
			if d.adv.Walk(c); c.Err() != nil {
				t.Fatalf("%s: re-encode: %v", name, c.Err())
			}
			if !bytes.Equal(out.Bytes(), state[:d.consumed]) {
				t.Fatalf("%s: decoded %d bytes that re-encode as %d others", name, d.consumed, out.Len())
			}
		}
	})
}

// TestWalksRefuseImpossibleState: a gait phase the SemiActive gait does
// not have, and a Bouncer draw count above the decoder's bound, are
// corrupt; the same states within range decode.
func TestWalksRefuseImpossibleState(t *testing.T) {
	semi := encodeState(t, &SemiActive{Reps: [2]types.ValidatorIndex{0, 12}, AutoFinalize: true}, 1<<30, 24)
	bouncer := encodeState(t, NewBouncer(0.6, 99, [2]types.ValidatorIndex{0, 12}), 3*32, 8)
	// The draw count sits ahead of Bounces and Releases.
	draws := binary.LittleEndian.Uint64(bouncer[len(bouncer)-24:])
	if draws == 0 {
		t.Fatal("the Bouncer drew no placement coin")
	}
	for _, tc := range []struct {
		name, kind string
		state      []byte
		bound      uint64
		corrupt    bool
	}{
		{"gait-phase-3", "semi-active", append(semi[:8:8], 3, 0, 0, 0, 0, 0, 0, 0), 0, false},
		{"gait-phase-4", "semi-active", append(semi[:8:8], 4, 0, 0, 0, 0, 0, 0, 0), 0, true},
		{"gait-phase-negative", "semi-active", append(semi[:8:8], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), 0, true},
		{"draws-at-bound", "bouncer", bouncer, draws, false},
		{"draws-past-bound", "bouncer", bouncer, draws - 1, true},
	} {
		d := decodeState(tc.state, tc.bound)[tc.kind]
		if got := errors.Is(d.err, codec.ErrCorrupt); got != tc.corrupt {
			t.Errorf("%s: decode error %v, want corrupt %t", tc.name, d.err, tc.corrupt)
		}
	}
}
