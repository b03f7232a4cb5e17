package engine

import (
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
