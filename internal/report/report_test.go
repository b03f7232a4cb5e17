package report

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "333") {
		t.Errorf("render output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestFigureCSV(t *testing.T) {
	f := &Figure{Title: "demo", XName: "x", X: []float64{1, 2}}
	if err := f.Add("y", []float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("bad", []float64{1}); err == nil {
		t.Error("length mismatch must be rejected")
	}
	var b strings.Builder
	if err := f.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "# demo\nx,y\n1,10\n2,20\n"
	if b.String() != want {
		t.Errorf("csv = %q, want %q", b.String(), want)
	}
}

func TestFormatEpoch(t *testing.T) {
	if got := FormatEpoch(4685); !strings.Contains(got, "days") {
		t.Errorf("4685 epochs should render in days: %s", got)
	}
	if got := FormatEpoch(50); !strings.Contains(got, "hours") {
		t.Errorf("50 epochs should render in hours: %s", got)
	}
	if got := FormatEpoch(5); !strings.Contains(got, "minutes") {
		t.Errorf("5 epochs should render in minutes: %s", got)
	}
}

func TestFigure2Content(t *testing.T) {
	f := Figure2()
	if len(f.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(f.Series))
	}
	// Active stays 32; inactive hits zero (ejection) before the end.
	active := f.Series[0].Values
	inactive := f.Series[2].Values
	if active[0] != 32 || active[len(active)-1] != 32 {
		t.Error("active trajectory must stay at 32")
	}
	if inactive[0] != 32 || inactive[len(inactive)-1] != 0 {
		t.Error("inactive trajectory must start at 32 and end ejected")
	}
}

func TestFigure3Content(t *testing.T) {
	f := Figure3()
	if len(f.Series) != 5 {
		t.Fatalf("series = %d, want 5", len(f.Series))
	}
	for _, s := range f.Series {
		if s.Values[len(s.Values)-1] != 1 {
			t.Errorf("series %s must end at ratio 1 after ejection", s.Name)
		}
	}
}

func TestFigure6Content(t *testing.T) {
	f, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	slash := f.Series[0].Values
	semi := f.Series[1].Values
	for i := range slash {
		if slash[i] > semi[i]+1e-9 {
			t.Fatalf("x=%v: slashing curve above semi-active curve", f.X[i])
		}
	}
}

func TestFigure7Content(t *testing.T) {
	f := Figure7()
	// The branch curves meet at the symmetric corner, p0 = 0.5, where the
	// both-branches curve (their maximum) has its minimum.
	mid := len(f.X) / 2
	own, other, both := f.Series[0].Values, f.Series[1].Values, f.Series[2].Values
	if both[mid] != own[mid] || own[mid] != other[mid] || both[mid] != slices.Min(both) {
		t.Errorf("p0=%v: branches %v and %v, both %v (minimum %v)", f.X[mid], own[mid], other[mid], both[mid], slices.Min(both))
	}
}

func TestFigure9Content(t *testing.T) {
	f := Figure9(4024)
	if len(f.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(f.Series))
	}
	cdf := f.Series[1].Values
	if cdf[0] != 0 || cdf[len(cdf)-1] != 1 {
		t.Errorf("censored CDF must go 0 -> 1, got %v -> %v", cdf[0], cdf[len(cdf)-1])
	}
}

func TestFigure10Content(t *testing.T) {
	f := Figure10()
	if len(f.Series) != 6 {
		t.Fatalf("series = %d, want 6", len(f.Series))
	}
	// More Byzantine stake never lowers the probability: at mid-leak the
	// curves are ordered by beta0, largest first.
	for k, mid := 1, len(f.X)/2; k < len(f.Series); k++ {
		if f.Series[k].Values[mid] > f.Series[k-1].Values[mid] {
			t.Errorf("%s above %s at epoch %v", f.Series[k].Name, f.Series[k-1].Name, f.X[mid])
		}
	}
}

// TestTables: Tables 2 and 3 render one row per beta0 claim; there is no
// Table 4.
func TestTables(t *testing.T) {
	for _, n := range []int{2, 3} {
		tbl, err := BetaTable(context.Background(), n, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) != 5 {
			t.Errorf("Table %d rows = %d, want 5", n, len(tbl.Rows))
		}
	}
	if _, err := BetaTable(context.Background(), 4, engine.Options{}); err == nil {
		t.Error("BetaTable(4) must error")
	}
}

// TestTable1ReadsTheCallersRegistry: Table 1's scenario names come from
// the registry the table ran on, not from the default one.
func TestTable1ReadsTheCallersRegistry(t *testing.T) {
	reg := engine.NewRegistry()
	for _, c := range engine.Table1Cells(1) {
		reg.MustRegister(engine.NewScenario(c.Scenario, "renamed "+c.Scenario, engine.Params{}, engine.FieldAll,
			func(context.Context, engine.Params) (engine.Result, error) { return engine.Result{}, nil }))
	}
	tbl, err := Table1(context.Background(), 1, engine.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[1] != "renamed "+row[0] {
			t.Errorf("scenario %s described %q, want %q", row[0], row[1], "renamed "+row[0])
		}
	}
}

// TestTable1Row53HasNoConflictEpoch: Scenario 5.3's outcome is a
// probability, so its Table 1 row shows no analytic or simulated conflict
// epoch; the other four rows show theirs.
func TestTable1Row53HasNoConflictEpoch(t *testing.T) {
	tbl, err := Table1(context.Background(), 1, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if dash := row[5] == "-" || row[6] == "-"; dash != (row[0] == "5.3") {
			t.Errorf("row %s: analytic %q, simulated %q", row[0], row[5], row[6])
		}
	}
	if last := tbl.Rows[len(tbl.Rows)-1]; last[0] != "5.3" || last[5] != "-" || last[6] != "-" {
		t.Errorf("5.3 row %q, want no conflict epochs", last)
	}
}

// TestFigure7SimMatchesAnalytic: the integer-simulation threshold boundary
// agrees with Equation 13's closed form wherever the threshold is below
// 1/3, and caps at 1/3 where the closed form exceeds it (an initial
// proportion of 1/3 crosses trivially).
func TestFigure7SimMatchesAnalytic(t *testing.T) {
	f, err := Figure7Sim(context.Background(), 5, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim := f.Series[0].Values
	an := f.Series[1].Values
	for i := range f.X {
		want := an[i]
		if want > 1.0/3.0 {
			want = 1.0 / 3.0
		}
		if d := sim[i] - want; d > 0.002 || d < -0.002 {
			t.Errorf("p0=%v: sim threshold %v vs expected %v", f.X[i], sim[i], want)
		}
	}
}

// TestFigure3SimTracksAnalytic: the integer-simulation ratio traces agree
// with Equation 5 before ejection and reach 1 after it.
func TestFigure3SimTracksAnalytic(t *testing.T) {
	f, err := Figure3Sim(context.Background(), 1000, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 5 {
		t.Fatalf("series = %d, want 5", len(f.Series))
	}
	for _, s := range f.Series {
		if got := s.Values[len(s.Values)-1]; got != 1 {
			t.Errorf("series %s final ratio = %v, want 1 after ejection", s.Name, got)
		}
	}
}

func TestFigure10MonteCarlo(t *testing.T) {
	f, err := Figure10MonteCarlo(context.Background(), 1.0/3.0, 200, 2, 5, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mc := f.Series[0].Values
	eq := f.Series[1].Values
	for i := range mc {
		if diff := mc[i] - eq[i]; diff > 0.15 || diff < -0.15 {
			t.Errorf("x=%v: MC %v vs Eq24 %v", f.X[i], mc[i], eq[i])
		}
	}
}
