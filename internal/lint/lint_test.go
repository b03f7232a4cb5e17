package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRE matches `// want "substr"` expectation comments, with one or
// more quoted substrings — the analysistest convention, restricted to
// substring matching.
var wantRE = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)`)

// quotedRE extracts the individual quoted substrings of a want comment.
var quotedRE = regexp.MustCompile(`"([^"]*)"`)

// TestFixtures runs the full analyzer suite over each fixture package and
// checks the reported diagnostics against the fixtures' `// want`
// comments: every want must be matched by a diagnostic on its line, and
// every diagnostic must be claimed by a want. Clean lines in the fixtures
// double as regression tests for the accepted patterns and for waiver
// handling, stale waivers included.
func TestFixtures(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no fixture packages under testdata/src")
	}
	for _, dir := range fixtures {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			runFixture(t, dir)
		})
	}
}

// lineKey identifies one source line.
type lineKey struct {
	file string
	line int
}

func runFixture(t *testing.T, dir string) {
	t.Helper()
	pkgs, err := Load(dir, ".")
	if err != nil || len(pkgs) != 1 {
		t.Fatalf("loading fixture: %d packages, %v", len(pkgs), err)
	}
	diags := Run(pkgs, Analyzers())

	wants := map[lineKey][]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			k := lineKey{e.Name(), i + 1}
			for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
				wants[k] = append(wants[k], q[1])
				total++
			}
		}
	}
	if total == 0 {
		t.Fatalf("fixture %s has no // want comments", dir)
	}

	for _, d := range diags {
		k := lineKey{filepath.Base(d.Pos.Filename), d.Pos.Line}
		claimed := false
		for i, substr := range wants[k] {
			if strings.Contains(d.Message, substr) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic at %s:%d: %s: %s", k.file, k.line, d.Analyzer, d.Message)
		}
	}
	for k, remaining := range wants {
		for _, substr := range remaining {
			t.Errorf("%s:%d: expected a diagnostic containing %q, got none", k.file, k.line, substr)
		}
	}
}
