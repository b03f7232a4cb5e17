package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/sim"
)

// allocated runs fn and returns the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeParams: whatever document a client sends as params — /run and
// /sweep bodies cross a trust boundary — DecodeParams does not panic or
// hang, allocates at most 4 x input + 1 MiB, and what it accepts
// round-trips through MarshalJSON to the identical Params, presence mask
// included, encoded to the bytes referenceMarshal writes. UnmarshalJSON
// reads every document as encoding/json alone does (referenceUnmarshal),
// to the error message. Measured: 560
// bytes for a document of 2,000 unknown or repeated short keys (the
// decoder this replaced spent 28 x its input on distinct one-character
// keys); at most 1.8 x for unknown keys longer than 32 bytes, which
// encoding/json case-folds on the heap; 1.2 x for a document that is one
// long mode string. Named seeds live in testdata/fuzz/FuzzDecodeParams.
func FuzzDecodeParams(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		var p Params
		var err error
		if grew := allocated(func() { p, err = DecodeParams(doc) }); grew > 4*uint64(len(doc))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(doc), grew)
		}
		var direct Params
		derr := direct.UnmarshalJSON(doc)
		if ref, rerr := referenceUnmarshal(doc); fmt.Sprint(derr) != fmt.Sprint(rerr) || direct != ref {
			t.Fatalf("%q: UnmarshalJSON reads %+v (%v), encoding/json %+v (%v)", doc, direct, derr, ref, rerr)
		}
		if err != nil {
			return
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("%+v decoded from %q does not encode: %v", p, doc, err)
		}
		if ref, err := referenceMarshal(p); err != nil || !bytes.Equal(b, ref) {
			t.Fatalf("%q → %+v encodes to %s, the reflection encoder to %s (%v)", doc, p, b, ref, err)
		}
		if q, err := DecodeParams(b); err != nil || q != p {
			t.Fatalf("%q → %+v → %s → %+v (%v)", doc, p, b, q, err)
		}
	})
}

// FuzzDecodePayload: DecodePayload reads a payload as encoding/json does.
// Whatever bytes it is handed — a store entry's payload crosses a trust
// boundary — a payload it accepts decodes to the Result json.Unmarshal
// makes of it, Params.Explicit included (the params read by
// referenceUnmarshal), and CheckPayload agrees with it. A Result built from
// the fuzzer's text and floats round-trips: EncodePayload's bytes are
// accepted, decode as encoding/json decodes them and encode back to
// themselves, or, for invalid UTF-8, to bytes that decode to the same
// Result. fuzzResult says how the Result is built. Seeded with the
// store's checked-in entry and a "beta > 1/3" outcome, which a payload
// holds as "beta \u003e 1/3".
func FuzzDecodePayload(f *testing.F) {
	entry, err := os.ReadFile("../store/testdata/gls1-entry.res")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entry[bytes.Index(entry, []byte(`{"scenario":`)):], "sim/gst||healed, finality recovered|violation_epoch||", 0.5, 9.0, uint8(0))
	f.Add([]byte(`{"scenario":"5.3","params":{"beta0":0.34},"outcome":"beta \u003e 1/3"}`), "5.3|a<b>&\"c\" é|beta > 1/3|p\x01|beta|\xff", 1.0/3, 2.5e-122, uint8(0xff))
	f.Fuzz(func(t *testing.T, doc []byte, text string, x, y float64, shape uint8) {
		checkDecodePayload(t, doc)
		payload, err := EncodePayload(fuzzResult(text, x, y, shape))
		if err != nil {
			return // a NaN or an infinity has no JSON form
		}
		if !checkDecodePayload(t, payload) {
			t.Fatalf("%s: refused what EncodePayload wrote", payload)
		}
		// Invalid UTF-8 is written as U+FFFD, which encodes as itself from
		// then on: only valid text comes back byte for byte.
		res, _ := DecodePayload(payload)
		again, err := EncodePayload(res)
		if err != nil || utf8.ValidString(text) && !bytes.Equal(again, payload) {
			t.Fatalf("%s decodes to %+v, which encodes to %s (%v)", payload, res, again, err)
		}
		if res2, err := DecodePayload(again); err != nil || !reflect.DeepEqual(res2, res) {
			t.Fatalf("%s decodes to %+v, then %+v (%v)", again, res, res2, err)
		}
	})
}

// checkDecodePayload reports whether DecodePayload accepts doc. It fails t
// when CheckPayload disagrees, or when the Result differs from what
// encoding/json reads.
func checkDecodePayload(t *testing.T, doc []byte) bool {
	t.Helper()
	got, err := DecodePayload(doc)
	if cerr := CheckPayload(doc); (cerr == nil) != (err == nil) {
		t.Fatalf("%q: DecodePayload says %v, CheckPayload %v", doc, err, cerr)
	}
	if err != nil {
		return false
	}
	var want Result
	var raw struct {
		Params json.RawMessage `json:"params"`
	}
	if err := json.Unmarshal(doc, &want); err != nil {
		t.Fatalf("%q: accepted, and encoding/json refuses it: %v", doc, err)
	}
	if err := json.Unmarshal(doc, &raw); err != nil {
		t.Fatal(err)
	}
	if want.Params, err = referenceUnmarshal(raw.Params); err != nil {
		t.Fatalf("%q: accepted, and the params do not decode: %v", doc, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: DecodePayload reads %+v, encoding/json %+v", doc, got, want)
	}
	return true
}

// fuzzResult builds a Result from fuzzer values. text is cut at '|' into
// the scenario, mode, outcome, two metric names, curve name and error. The
// bits of shape choose empty metric and curve lists (1, 2), floats scaled
// into exponent form (4) and sparse params (8) over a full record.
func fuzzResult(text string, x, y float64, shape uint8) Result {
	s := append(strings.Split(text, "|"), make([]string, 7)...)
	if shape&4 != 0 {
		x, y = x*1e-30, y*1e25
	}
	res := Result{Scenario: s[0], Outcome: s[2], CurveName: s[5], Err: s[6], Metrics: []Metric{}, Curve: []CurvePoint{},
		Params: Params{P0: x, Beta0: y, Mode: s[1], Seed: int64(shape) - 128, N: len(text), Horizon: -int(shape)}.MarkExplicit(FieldRate)}
	if shape&8 == 0 {
		res.Params = res.Params.WithDefaults(Params{})
	}
	if shape&1 == 0 {
		res.Metrics = []Metric{{s[3], x}, {s[4], y}}
	}
	if shape&2 == 0 {
		res.Curve = []CurvePoint{{x, y}, {-y, x}}
	}
	return res
}

// referenceMarshal is the encoder MarshalJSON replaced: one pointer field of
// wireType per present dimension, encoded by encoding/json.
func referenceMarshal(p Params) ([]byte, error) {
	v, w := reflect.ValueOf(&p).Elem(), reflect.New(wireType)
	for i, d := range wireRows {
		if !p.unset(d, v) {
			w.Elem().Field(i).Set(v.Field(d.pi).Addr())
		}
	}
	return json.Marshal(w.Interface())
}

// referenceUnmarshal is UnmarshalJSON without its in-place reader: one
// encoding/json pass into wireType.
func referenceUnmarshal(data []byte) (Params, error) {
	var p Params
	w := reflect.New(wireType)
	if err := json.Unmarshal(data, w.Interface()); err != nil {
		return p, err
	}
	v := reflect.ValueOf(&p).Elem()
	for i, d := range wireRows {
		if f := w.Elem().Field(i); !f.IsNil() {
			v.Field(d.pi).Set(f.Elem())
			p.Explicit |= d.field
		}
	}
	return p, nil
}

// TestParamsMarshalMatchesReference: MarshalJSON itself, not only what
// encoding/json makes of its output, writes referenceMarshal's bytes —
// for modes that need HTML, control-byte and invalid-UTF-8 escaping,
// which no decoded document can hold, and for floats on both sides of
// the switches to exponent form.
func TestParamsMarshalMatchesReference(t *testing.T) {
	modes := []string{"", "double", "a<b", "b>c", "c&d", `say "x"`, `back\slash`, "tab\there\x01\x1f", "caf\xe9\xff", "é\u2028\u2029", "~\x7f"}
	floats := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), -1e-7, 1e21, math.Nextafter(1e21, 0), -1.5e300, 5e-324, 1.0 / 3}
	for i, mode := range modes {
		for j, x := range floats {
			p := Params{P0: x, Beta0: floats[(j+1)%len(floats)], Rate: floats[(j+i)%len(floats)], Mode: mode,
				Seed: int64(j-5) << 60, N: i, GST: -j}.MarkExplicit(FieldRate, FieldBeta0)
			got, err := p.MarshalJSON()
			want, rerr := referenceMarshal(p)
			if err != nil || rerr != nil || !bytes.Equal(got, want) {
				t.Errorf("%+v:\n got %s (%v)\nwant %s (%v)", p, got, err, want, rerr)
			}
		}
	}
}

// FuzzParseGrid: whatever sweep spec arrives — /sweep parses it before
// admission — ParseGrid does not panic or hang, a spec it accepts expands
// to at most maxGridCells and lists only finite numbers, and ParseGrid
// allocates at most 16 x spec +
// 1 MiB beyond 32 bytes per value it lists. Measured: 8.3 x a 6 kB spec
// refused at its last token, 8 x a spec of 3,000 one-value items, and 8
// (numbers) to 16.5 (modes) bytes per listed value. The cells are
// expanded, and counted against the product, for grids of up to 1<<14
// cells; the cell limit itself is TestParseGridLimitAndOverflow's. Named
// seeds live in testdata/fuzz/FuzzParseGrid.
func FuzzParseGrid(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		var g Grid
		var err error
		grew := allocated(func() { g, err = ParseGrid("s", spec) })
		if err != nil {
			if grew > 16*uint64(len(spec))+1<<20 {
				t.Fatalf("refusing %d bytes allocated %d", len(spec), grew)
			}
			return
		}
		values, n := 0, 1
		gv := reflect.ValueOf(g)
		for i := range paramDims {
			if slot := gv.Field(paramDims[i].gi); slot.Kind() == reflect.Slice && slot.Len() > 0 {
				values, n = values+slot.Len(), n*slot.Len()
				for k := range slot.Len() {
					if v := slot.Index(k); v.Kind() == reflect.Float64 && !finite(v.Float()) {
						t.Fatalf("%q accepted with %s value %v", spec, paramDims[i].key, v.Float())
					}
				}
			}
		}
		if grew > 16*uint64(len(spec))+32*uint64(values)+1<<20 {
			t.Fatalf("parsing %d bytes into %d values allocated %d", len(spec), values, grew)
		}
		if n > maxGridCells {
			t.Fatalf("%q accepted with %d cells", spec, n)
		}
		if n <= 1<<14 {
			if cells := g.Cells(); len(cells) != n {
				t.Fatalf("%q: %d cells, counted %d", spec, len(cells), n)
			}
		}
	})
}

// FuzzDecodePrefix: whatever bytes a durable checkpoint is read from —
// through a *bytes.Reader, which reports its length, and through a reader
// that does not — every simulator row's DecodePrefix does not panic,
// allocates at most 32 x input + 1 MiB, and either rejects the bytes with
// an error wrapping errPrefixCodec or sim.ErrSnapshotCodec, or returns a
// prefix whose EncodePrefix writes exactly the bytes it read. Seeded with
// the checked-in sim/semiactive blobs, a fresh sim/leak prefix and the
// version 1 blob.
func FuzzDecodePrefix(f *testing.F) {
	for _, name := range []string{prefixFixture, prefixV7Frame, prefixV6Frame, prefixV5Frame, prefixV4Frame, prefixV1PR18} {
		blob, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	leak, _ := Default.Lookup(ScenarioSimLeak)
	cs := leak.(CheckpointableScenario)
	pre, err := cs.RunTo(context.Background(), Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1, Sample: 2}.WithDefaults(leak.Defaults()), nil, 8)
	if err != nil {
		f.Fatal(err)
	}
	var blob bytes.Buffer
	if err := cs.EncodePrefix(&blob, pre); err != nil {
		f.Fatal(err)
	}
	f.Add(blob.Bytes())

	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, row := range simRows {
			sc, _ := Default.Lookup(row.name)
			cs := sc.(CheckpointableScenario)
			for _, src := range []io.Reader{bytes.NewReader(blob), io.MultiReader(bytes.NewReader(blob))} {
				var pre *Prefix
				var err error
				if grew := allocated(func() { pre, err = cs.DecodePrefix(src) }); grew > 32*uint64(len(blob))+1<<20 {
					t.Fatalf("%s: decoding %d bytes from a %T allocated %d", row.name, len(blob), src, grew)
				}
				if err != nil {
					if pre != nil || !errors.Is(err, errPrefixCodec) && !errors.Is(err, sim.ErrSnapshotCodec) {
						t.Fatalf("%s: rejected with %v (prefix %t), want nil and errPrefixCodec or sim.ErrSnapshotCodec", row.name, err, pre != nil)
					}
					continue
				}
				var out bytes.Buffer
				if err := cs.EncodePrefix(&out, pre); err != nil {
					t.Fatalf("%s: accepted blob does not re-encode: %v", row.name, err)
				}
				if out.Len() > len(blob) || !bytes.Equal(out.Bytes(), blob[:out.Len()]) {
					t.Fatalf("%s: accepted %d bytes that re-encode differently (%d bytes)", row.name, len(blob), out.Len())
				}
			}
		}
	})
}
