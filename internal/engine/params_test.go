package engine

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// defaultsProbe is a scenario whose defaults are non-zero in every
// dimension the zero-folding bug used to corrupt: it just echoes its
// effective params as metrics.
func defaultsProbe(t *testing.T) (*Registry, Params) {
	t.Helper()
	defaults := Params{P0: 0.5, Beta0: 0.25, Mode: "m", Seed: 9, N: 100, Horizon: 10, Rate: 0.4, GST: 7}
	reg := NewRegistry()
	reg.MustRegister(NewScenario("probe", "echoes effective params", defaults, FieldAll,
		func(_ context.Context, p Params) (Result, error) {
			return Result{Metrics: []Metric{
				{Name: "rate", Value: p.Rate},
				{Name: "gst", Value: float64(p.GST)},
				{Name: "p0", Value: p.P0},
				{Name: "beta0", Value: p.Beta0},
			}}, nil
		}))
	return reg, defaults
}

// TestWithDefaultsKeepsExplicitZeros is the headline regression: an
// explicit zero-valued parameter survives defaulting, while an unset zero
// still takes the scenario default.
func TestWithDefaultsKeepsExplicitZeros(t *testing.T) {
	_, d := defaultsProbe(t)

	unset := Params{}.WithDefaults(d)
	if unset.Rate != d.Rate || unset.GST != d.GST || unset.P0 != d.P0 || unset.Beta0 != d.Beta0 {
		t.Fatalf("unset params did not take defaults: %+v", unset)
	}

	explicit := Params{}.MarkExplicit(FieldRate, FieldGST, FieldP0, FieldBeta0).WithDefaults(d)
	if explicit.Rate != 0 || explicit.GST != 0 || explicit.P0 != 0 || explicit.Beta0 != 0 {
		t.Fatalf("explicit zeros were rewritten to defaults: %+v", explicit)
	}
	if explicit.Mode != d.Mode || explicit.Seed != d.Seed || explicit.N != d.N {
		t.Fatalf("unmarked fields should still default: %+v", explicit)
	}
	if explicit.Explicit != FieldAll {
		t.Fatalf("WithDefaults must produce a fully specified record (FieldAll), got %b", explicit.Explicit)
	}
}

// TestParamsJSONRoundTripPreservesExplicitZeros pins the wire symmetry:
// a fully defaulted record containing an explicit zero serializes that
// zero and decodes back to the identical effective run — re-submitting a
// result's params reproduces the result instead of silently reverting
// zeros to scenario defaults. Sparse requests stay sparse.
func TestParamsJSONRoundTripPreservesExplicitZeros(t *testing.T) {
	_, d := defaultsProbe(t)
	full := Params{}.MarkExplicit(FieldRate, FieldGST).WithDefaults(d)
	if full.Rate != 0 || full.GST != 0 {
		t.Fatalf("setup: explicit zeros lost before the round trip: %+v", full)
	}
	blob, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"rate":0`) || !strings.Contains(string(blob), `"gst":0`) {
		t.Fatalf("fully specified record omitted its explicit zeros: %s", blob)
	}
	back, err := DecodeParams(blob)
	if err != nil {
		t.Fatal(err)
	}
	if again := back.WithDefaults(d); again != full {
		t.Fatalf("round trip changed the effective run:\n  sent: %+v\n  got:  %+v", full, again)
	}

	// A sparse request marshals sparsely: unset fields stay absent so the
	// receiving registry can default them.
	sparse, err := json.Marshal(Params{N: 60})
	if err != nil {
		t.Fatal(err)
	}
	if string(sparse) != `{"n":60}` {
		t.Fatalf("sparse params marshalled as %s, want {\"n\":60}", sparse)
	}
}

// TestSweepBaselineCellKeepsExplicitZero sweeps rate=[0, 0.1] (and
// gst=[0, 4]) over a scenario whose defaults are non-zero: the baseline
// cell must run with rate exactly 0 and gst exactly 0, not with the
// defaults — the bug that silently corrupted the first cell of every
// drop-rate/GST sweep.
func TestSweepBaselineCellKeepsExplicitZero(t *testing.T) {
	reg, d := defaultsProbe(t)
	grid, err := ParseGrid("probe", "rate=0,0.1; gst=0,4")
	if err != nil {
		t.Fatal(err)
	}
	results := SweepContext(context.Background(), grid.Cells(), Options{Workers: 1, Registry: reg})
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("want 4 cells, got %d", len(results))
	}
	wantRate := []float64{0, 0, 0.1, 0.1}
	wantGST := []float64{0, 4, 0, 4}
	for i, r := range results {
		rate, _ := r.Metric("rate")
		gst, _ := r.Metric("gst")
		if rate != wantRate[i] || gst != wantGST[i] {
			t.Errorf("cell %d ran with rate=%v gst=%v, want rate=%v gst=%v", i, rate, gst, wantRate[i], wantGST[i])
		}
		if r.Params.Rate != wantRate[i] || float64(r.Params.GST) != wantGST[i] {
			t.Errorf("cell %d recorded params rate=%v gst=%d, want rate=%v gst=%v", i, r.Params.Rate, r.Params.GST, wantRate[i], wantGST[i])
		}
		// Dimensions the grid does not list still take defaults.
		if p0, _ := r.Metric("p0"); p0 != d.P0 {
			t.Errorf("cell %d: unlisted p0 = %v, want default %v", i, p0, d.P0)
		}
	}
}

// TestSimDropsExplicitZeroRateRunsLossless is the full-protocol
// acceptance check: in a sim/drops sweep over rate=[0, 0.3], the explicit
// rate=0 cell simulates with drop rate exactly 0 — zero delayed
// deliveries — rather than whatever the scenario default is.
func TestSimDropsExplicitZeroRateRunsLossless(t *testing.T) {
	grid, err := ParseGrid(ScenarioSimDrops, "rate=0,0.3")
	if err != nil {
		t.Fatal(err)
	}
	grid.N = 64
	grid.Horizons = []int{4}
	results := SweepContext(context.Background(), grid.Cells(), Options{Workers: 1})
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if results[0].Params.Rate != 0 {
		t.Fatalf("baseline cell params rate = %v, want 0", results[0].Params.Rate)
	}
	if delayed, _ := results[0].Metric("msgs_delayed"); delayed != 0 {
		t.Fatalf("explicit rate=0 cell delayed %v messages, want 0 (ran with a non-zero rate?)", delayed)
	}
	if delayed, _ := results[1].Metric("msgs_delayed"); delayed == 0 {
		t.Fatal("rate=0.3 cell delayed no messages; the sweep dimension is not reaching the simulator")
	}
}

// TestDecodeParamsMarksPresence pins the serving-layer decoder: keys
// present in the JSON document are explicit, absent keys are not.
func TestDecodeParamsMarksPresence(t *testing.T) {
	p, err := DecodeParams([]byte(`{"rate": 0, "gst": 0, "n": 50}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Field{FieldRate, FieldGST, FieldN} {
		if !p.IsExplicit(f) {
			t.Errorf("field %b present in document but not marked explicit", f)
		}
	}
	for _, f := range []Field{FieldP0, FieldBeta0, FieldMode, FieldSeed, FieldHorizon, FieldSample} {
		if p.IsExplicit(f) {
			t.Errorf("field %b absent from document but marked explicit", f)
		}
	}
	// Keys match as encoding/json matches struct fields: \u escapes and
	// case folding included; strings keep their escapes' meaning; a null
	// is no value, so the key stays unset.
	p, err = DecodeParams([]byte(`{"R\u0061TE": 0.5, "mode": "a\"b", "seed": null, "x": {"n": 1}}`))
	if err != nil || p.Rate != 0.5 || p.Mode != `a"b` || p.Explicit != FieldRate|FieldMode {
		t.Errorf("escaped and folded keys decoded to %+v, %v", p, err)
	}
	if _, err := DecodeParams([]byte(`{"rate": "no"}`)); err == nil {
		t.Fatal("DecodeParams accepted a mistyped field")
	}
}

// TestFieldForKeyCoversEveryGridKey keeps the flag/grid key space and the
// presence bits in sync.
func TestFieldForKeyCoversEveryGridKey(t *testing.T) {
	for _, key := range []string{"p0", "beta0", "mode", "seed", "horizon", "rate", "gst", "n", "sample"} {
		if dimForKey(key) == nil {
			t.Errorf("key %q resolves to no parameter", key)
		}
	}
	if dimForKey("workers") != nil {
		t.Error("non-parameter keys must not resolve")
	}
}

// fixtureParams mirrors Params field for field without its JSON methods,
// so the fixture records raw values (and the Explicit mask) independently
// of the codec under test.
type fixtureParams struct {
	P0       float64
	Beta0    float64
	Mode     string
	Seed     int64
	N        int
	Horizon  int
	Sample   int
	Rate     float64
	GST      int
	Explicit Field
}

// paramsFixture is testdata/params-pr21.json, written by the code this
// table-driven Params replaced: per record its marshalled bytes, String()
// and WithDefaults output against each of Defaults; FillFrom cases; and
// ParseGrid specs with their cells or their error.
type paramsFixture struct {
	Defaults []fixtureParams
	Records  []struct {
		Params   fixtureParams
		JSON     string
		String   string
		Defaults []struct {
			Params fixtureParams
			JSON   string
		}
	}
	Fill []struct {
		Grid   Grid
		Params fixtureParams
		Want   Grid
	}
	Grids []struct {
		Scenario, Spec, Err string
		Cells               []struct {
			Scenario string
			Params   fixtureParams
			JSON     string
		}
	}
}

// TestParamsFixtureWrittenByPR21 reproduces, byte for byte, every JSON
// encoding, String rendering, defaulted record, FillFrom result, grid
// error message and cell (order, derived seed, Explicit mask) that the
// hand-written Params code produced — sparse, full, explicit-zero and
// e-notation floats (1e-7, 1e21, -0) included.
func TestParamsFixtureWrittenByPR21(t *testing.T) {
	raw, err := os.ReadFile("testdata/params-pr21.json")
	if err != nil {
		t.Fatal(err)
	}
	var fx paramsFixture
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatal(err)
	}
	for i, r := range fx.Records {
		p := Params(r.Params)
		if b, err := json.Marshal(p); err != nil || string(b) != r.JSON {
			t.Errorf("record %d %+v: marshalled %s (%v), want %s", i, r.Params, b, err, r.JSON)
		}
		if s := p.String(); s != r.String {
			t.Errorf("record %d: String() = %q, want %q", i, s, r.String)
		}
		for j, d := range fx.Defaults {
			got := p.WithDefaults(Params(d))
			b, _ := json.Marshal(got)
			if want := r.Defaults[j]; fixtureParams(got) != want.Params || string(b) != want.JSON {
				t.Errorf("record %d defaults %d: %+v %s, want %+v %s", i, j, got, b, want.Params, want.JSON)
			}
		}
	}
	for i, f := range fx.Fill {
		got, _ := json.Marshal(f.Grid.FillFrom(Params(f.Params)))
		if want, _ := json.Marshal(f.Want); string(got) != string(want) {
			t.Errorf("fill %d: %s, want %s", i, got, want)
		}
	}
	for _, g := range fx.Grids {
		grid, err := ParseGrid(g.Scenario, g.Spec)
		if g.Err != "" {
			if err == nil || err.Error() != g.Err {
				t.Errorf("ParseGrid(%q) error %v, want %s", g.Spec, err, g.Err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseGrid(%q): %v", g.Spec, err)
			continue
		}
		cells := grid.Cells()
		if len(cells) != len(g.Cells) {
			t.Errorf("ParseGrid(%q): %d cells, want %d", g.Spec, len(cells), len(g.Cells))
			continue
		}
		for k, c := range cells {
			b, _ := json.Marshal(c)
			want := g.Cells[k]
			if c.Scenario != want.Scenario || fixtureParams(c.Params) != want.Params || string(b) != want.JSON {
				t.Errorf("ParseGrid(%q) cell %d: %+v %s, want %+v %s", g.Spec, k, c.Params, b, want.Params, want.JSON)
			}
		}
	}
}

// TestParamDimsCoverParamsAndGrid: every parameter field of Params (not
// the json:"-" presence mask) and every Grid slot but the scenario has
// exactly one paramDims row, and a row's key is its field's JSON key —
// deleting a row, or adding a field without one, fails here.
func TestParamDimsCoverParamsAndGrid(t *testing.T) {
	rows := func(match func(d paramDim) bool) int {
		n := 0
		for _, d := range paramDims {
			if match(d) {
				n++
			}
		}
		return n
	}
	fields := 0
	pt := reflect.TypeFor[Params]()
	for i := range pt.NumField() {
		f := pt.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if key == "-" {
			continue
		}
		fields++
		if n := rows(func(d paramDim) bool { return d.param == f.Name && d.key == key }); n != 1 {
			t.Errorf("Params.%s (json %q) has %d paramDims rows, want 1", f.Name, key, n)
		}
	}
	slots := 0
	gt := reflect.TypeFor[Grid]()
	for i := range gt.NumField() {
		f := gt.Field(i)
		if f.Name == "Scenario" {
			continue
		}
		slots++
		if n := rows(func(d paramDim) bool { return d.grid == f.Name }); n != 1 {
			t.Errorf("Grid.%s has %d paramDims rows, want 1", f.Name, n)
		}
	}
	if len(paramDims) != fields || len(paramDims) != slots {
		t.Errorf("%d rows for %d Params fields and %d Grid slots", len(paramDims), fields, slots)
	}
	if FieldAll != 1<<len(paramDims)-1 {
		t.Errorf("FieldAll = %b does not cover the %d rows", FieldAll, len(paramDims))
	}
}

// TestMarkFlagOnlyZeroValuedDimensions: a CLI flag marks its dimension
// explicit only where zero is a value.
func TestMarkFlagOnlyZeroValuedDimensions(t *testing.T) {
	var p Params
	for _, name := range []string{"p0", "beta0", "mode", "seed", "n", "horizon", "sample", "rate", "gst", "workers"} {
		p = p.MarkFlag(name)
	}
	if want := FieldP0 | FieldBeta0 | FieldRate | FieldGST; p.Explicit != want {
		t.Errorf("marked %b, want %b", p.Explicit, want)
	}
}

// TestParamsMarshalRejectsNonFinite: NaN and ±Inf fail to encode, as they
// do under encoding/json.
func TestParamsMarshalRejectsNonFinite(t *testing.T) {
	for _, p := range []Params{{P0: math.NaN()}, {Rate: math.Inf(-1)}} {
		if b, err := json.Marshal(p); err == nil {
			t.Errorf("%v marshalled to %s", p, b)
		}
	}
}
