package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestCellKeyCanonicalization(t *testing.T) {
	a := CellKey("leaksim", Params{P0: 0.5, N: 10000})
	if b := CellKey("leaksim", Params{P0: 0.5, N: 10000}); a != b {
		t.Error("identical params must share a key")
	}
	if CellKey("leaksim", Params{P0: 0.6, N: 10000}) == a {
		t.Error("p0 must distinguish keys")
	}
	if CellKey("bounce-mc", Params{P0: 0.5, N: 10000}) == a {
		t.Error("scenario must distinguish keys")
	}
	// Cells of a rate or gst sweep differ only there: a collision would
	// serve one cell's result for every other cell.
	if CellKey("leaksim", Params{P0: 0.5, N: 10000, Rate: 0.2}) == a {
		t.Error("rate must distinguish keys")
	}
	if CellKey("leaksim", Params{P0: 0.5, N: 10000, GST: 8}) == a {
		t.Error("gst must distinguish keys")
	}
	// The Explicit mask is presence metadata, not a parameter: two
	// fully-defaulted records that spell their zeros differently compare
	// equal and must share a key.
	masked := Params{P0: 0.5, N: 10000, Explicit: FieldAll}
	if CellKey("leaksim", masked) != a {
		t.Error("the Explicit mask must not distinguish keys")
	}
}

// TestCellKeyCoversEveryParamsField fails the moment Params gains a
// parameter field the canonical key ignores: it perturbs each field via
// reflection and demands a different key. Every caching tier (server LRU,
// persistent store, client read-through) keys by this string, so an
// ignored field would serve one cell's result for every other cell of a
// sweep over that dimension. Fields tagged `json:"-"` are exempt: presence
// metadata, constant (FieldAll) across all fully-defaulted Params, so
// never run-distinguishing.
func TestCellKeyCoversEveryParamsField(t *testing.T) {
	base := CellKey("s", Params{})
	rt := reflect.TypeOf(Params{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if strings.HasPrefix(f.Tag.Get("json"), "-") {
			continue
		}
		var p Params
		fv := reflect.ValueOf(&p).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Float64:
			fv.SetFloat(0.123)
		case reflect.Int, reflect.Int64:
			fv.SetInt(123)
		case reflect.String:
			fv.SetString("x")
		default:
			t.Fatalf("field %s has kind %s: teach this test (and check CellKey) about it", f.Name, f.Type.Kind())
		}
		if CellKey("s", p) == base {
			t.Errorf("cell key ignores Params.%s", f.Name)
		}
	}
}

func TestCanonicalCellKey(t *testing.T) {
	// Defaults are applied before keying: a sparse cell and its fully
	// spelled-out equivalent share the canonical key.
	sc, ok := Default.Lookup(ScenarioLeakSim)
	if !ok {
		t.Fatal("leaksim not registered")
	}
	sparse, ok := CanonicalCellKey(nil, Cell{Scenario: ScenarioLeakSim, Params: Params{Beta0: 0.2}})
	if !ok {
		t.Fatal("known scenario must resolve")
	}
	full, _ := CanonicalCellKey(Default, Cell{Scenario: ScenarioLeakSim,
		Params: Params{Beta0: 0.2}.WithDefaults(sc.Defaults())})
	if sparse != full {
		t.Errorf("sparse key %q != defaulted key %q", sparse, full)
	}
	if _, ok := CanonicalCellKey(Default, Cell{Scenario: "no-such"}); ok {
		t.Error("unknown scenario must not resolve a key")
	}
}

// TestCellKeyMatchesFormatReference: CellKey writes every key byte for
// byte as the fmt-based format it replaced, which keyed every result store
// and fixture written before it. The reference writes each field with %v.
func TestCellKeyMatchesFormatReference(t *testing.T) {
	reference := func(scenario string, p Params) string {
		var b strings.Builder
		b.WriteString(scenario)
		rv := reflect.ValueOf(p)
		for i := 0; i < rv.NumField(); i++ {
			if f := rv.Type().Field(i); !strings.HasPrefix(f.Tag.Get("json"), "-") {
				fmt.Fprintf(&b, "|%s=%v", f.Name, rv.Field(i).Interface())
			}
		}
		return b.String()
	}
	floats := []float64{0, math.Copysign(0, -1), 0.1, 0.3, 1.0 / 3, 1e21, 1e20, 1e-7, 123456789.125, -2.5,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}
	ints := []int64{0, 1, -1, 255, 256, math.MaxInt64, math.MinInt64}
	modes := []string{"", "double", "a|b=c"}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 2000; k++ {
		p := Params{
			P0: floats[rng.Intn(len(floats))], Beta0: rng.Float64(), Mode: modes[rng.Intn(len(modes))],
			Seed: ints[rng.Intn(len(ints))], N: int(ints[rng.Intn(len(ints))]), Horizon: rng.Intn(5000) - 10,
			Sample: rng.Int(), Rate: floats[rng.Intn(len(floats))], GST: -rng.Int(), Explicit: Field(rng.Intn(int(fieldEnd))),
		}
		if k%2 == 0 {
			p.Beta0 = math.Float64frombits(rng.Uint64())
		}
		if got, want := CellKey("sim/gst", p), reference("sim/gst", p); got != want {
			t.Fatalf("CellKey = %q, the %%v format writes %q", got, want)
		}
	}
}
