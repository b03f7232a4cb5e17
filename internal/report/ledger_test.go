package report

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
)

var writeExperiments = flag.Bool("write-experiments", false, "rewrite EXPERIMENTS.md's ledger block from this run")

const (
	experimentsPath = "../../EXPERIMENTS.md"
	ledgerBegin     = "<!-- ledger: begin -->\n"
	ledgerEnd       = "<!-- ledger: end -->\n"
)

// TestLedger runs every distinct cell of Claims once, holds every measure to
// its claim, and pins EXPERIMENTS.md's paper-vs-measured block to the
// render of this run. -short skips the full-protocol measures (seconds
// each) and with them the block.
func TestLedger(t *testing.T) {
	ctx := context.Background()
	skip := func(m Measure) bool { return testing.Short() && m.Model == FullProtocol }
	var cells []engine.Cell
	index := map[engine.Cell]int{}
	for _, c := range Claims {
		for _, m := range c.By {
			if _, seen := index[m.Cell]; m.Eval == nil && !skip(m) && !seen {
				index[m.Cell] = len(cells)
				cells = append(cells, m.Cell)
			}
		}
	}
	results := engine.SweepContext(ctx, cells, engine.Options{})
	values := make([][]float64, len(Claims))
	for i, c := range Claims {
		values[i] = make([]float64, len(c.By))
		for j, m := range c.By {
			var err error
			switch {
			case skip(m):
				continue
			case m.Eval != nil:
				values[i][j], err = m.Eval(ctx, engine.Options{})
			default:
				values[i][j], err = m.Read(results[index[m.Cell]])
			}
			if err != nil {
				t.Errorf("%s, %s (%s): %v", c.Artifact, c.Row, m.Model, err)
			} else if !holds(c, m, values[i][j]) {
				t.Errorf("%s, %s (%s): measured %s, paper %s, tolerance %s", c.Artifact, c.Row, m.Model,
					formatValue(values[i][j]), paperValue(c), tolerance(c, m))
			}
		}
	}
	if testing.Short() {
		t.Log("-short: full-protocol measures skipped, EXPERIMENTS.md not checked")
		return
	}

	doc, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	begin := strings.Index(string(doc), ledgerBegin)
	end := strings.Index(string(doc), ledgerEnd)
	if begin < 0 || end < begin {
		t.Fatalf("%s has no %q ... %q block", experimentsPath, ledgerBegin, ledgerEnd)
	}
	begin += len(ledgerBegin)
	want := renderLedger(values)
	if *writeExperiments {
		doc = append(doc[:begin:begin], append([]byte(want), doc[end:]...)...)
		if err := os.WriteFile(experimentsPath, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	have := strings.Split(string(doc[begin:end]), "\n")
	for i, line := range strings.Split(want, "\n") {
		if i >= len(have) || have[i] != line {
			name := "header"
			if i >= 2 && i-2 < len(Claims) {
				name = Claims[i-2].Artifact + ", " + Claims[i-2].Row
			}
			t.Errorf("EXPERIMENTS.md ledger block, %s:\nchecked in %q\nmeasured   %q\n(go test ./internal/report -run TestLedger -write-experiments rewrites it)",
				name, strings.Join(have[min(i, len(have)):min(i+1, len(have))], ""), line)
		}
	}
	if n := strings.Count(want, "\n"); len(have) > n+1 {
		t.Errorf("EXPERIMENTS.md ledger block has %d lines, the ledger renders %d", len(have)-1, n)
	}
}

// holds reports whether v, measured by m, stands within c's bound.
func holds(c Claim, m Measure, v float64) bool {
	switch c.Bound {
	case AtLeast:
		return v >= c.Paper
	case AtMost:
		return v <= c.Paper
	}
	return math.Abs(v-c.Paper) <= m.Tol
}

// renderLedger renders the ledger and one run's values as EXPERIMENTS.md's
// paper-vs-measured table: after two header lines, one line per claim and
// one column per model.
func renderLedger(values [][]float64) string {
	var b strings.Builder
	b.WriteString("| Artifact | Row | Paper | Analytic | Aggregate | Full protocol | Benchmark metric |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for i, c := range Claims {
		byModel := map[Model][]string{}
		var units []string
		for j, m := range c.By {
			byModel[m.Model] = append(byModel[m.Model], fmt.Sprintf("%s (%s)", formatValue(values[i][j]), tolerance(c, m)))
			if m.Unit != "" {
				units = append(units, "`"+m.Unit+"`")
			}
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s |\n", c.Artifact, c.Row, paperValue(c),
			strings.Join(byModel[Analytic], "; "), strings.Join(byModel[Aggregate], "; "),
			strings.Join(byModel[FullProtocol], "; "), strings.Join(units, ", "))
	}
	return b.String()
}

func paperValue(c Claim) string {
	if c.Says != "" {
		return c.Says
	}
	return strconv.FormatFloat(c.Paper, 'g', -1, 64)
}

func tolerance(c Claim, m Measure) string {
	switch {
	case c.Bound == AtLeast:
		return "≥ " + strconv.FormatFloat(c.Paper, 'g', -1, 64)
	case c.Bound == AtMost:
		return "≤ " + strconv.FormatFloat(c.Paper, 'g', -1, 64)
	case m.Tol == 0:
		return "exact"
	}
	return "±" + strconv.FormatFloat(m.Tol, 'g', -1, 64)
}

// formatValue renders a measured value to five significant digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }
