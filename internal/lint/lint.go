// Package lint is gasperlint: a suite of project-specific static
// analyzers that enforce, at build time, the invariants every headline
// result of this reproduction rests on — seed-determinism, snapshot-codec
// completeness, and allocation-free hot paths.
//
// The runtime test suite checks these invariants after an expensive sim
// run and only on the code paths a test happens to exercise; the analyzers
// here fail `gasperlint ./...`-time instead, for every path in the tree:
//
//   - detrange    — flags every `range` over a map, and every `range`
//     directly over maps.All/Keys/Values, inside the deterministic
//     packages unless the loop carries a //gasper:ordered waiver; ranging
//     over slices.Sorted(maps.Keys(m)) is the sorted rewrite and passes.
//   - detsource   — flags nondeterminism sources on result-producing
//     paths: time.Now/Since, the global math/rand top-level functions
//     (a seeded *rand.Rand is fine), and select fan-in that can reorder
//     results; waived with //gasper:nondet.
//   - codecfields — cross-checks every snapshot codec walk (a walk/Walk
//     method over a *codec.Coder, both codec sides at once) and every
//     Clone method against its struct definition: a field missing from
//     the walk, or a reference-typed field shallow-copied by Clone, is a
//     diagnostic unless the field carries //gasper:nocodec or
//     //gasper:shallow.
//
// Every //gasper:ordered, nondet or alloc waiver must waive a finding of
// its analyzer on its own line or the next; one that waives nothing is
// reported as stale, and so is a malformed directive.
//   - noalloc     — checks functions annotated //gasper:noalloc for
//     syntactically allocating constructs (map/slice literals, make, new,
//     append growth, fmt calls, closures, string concatenation); a cold
//     path inside one is waived line-by-line with //gasper:alloc.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Diagnostic) but is built on the standard
// library only — go/ast + go/types, with type information for imports
// loaded from `go list -export` compiler export data — so the module
// stays dependency-free.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check, in the shape of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is the one-paragraph description printed by `gasperlint -help`.
	Doc string
	// Run reports diagnostics for one package via pass.Report.
	Run func(pass *Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// dirs is the per-line waiver/annotation index for the package.
	dirs *directiveIndex
	// report collects diagnostics.
	report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: p.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// Analyzers returns the full gasperlint suite in deterministic order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetRange, DetSource, CodecFields, NoAlloc}
}

// DeterministicPackages lists the import-path suffixes (relative to the
// module root) whose results must be bit-identical for a given seed: the
// simulation kernel and everything a sweep cell's payload is computed
// from. detrange and detsource only fire inside these packages (and their
// subpackages); codecfields and noalloc apply wherever their annotations
// or codec shapes appear.
var DeterministicPackages = []string{
	"internal/sim",
	"internal/engine",
	"internal/forkchoice",
	"internal/refmodel",
	"internal/beacon",
	"internal/ffg",
	"internal/attestation",
	"internal/behavior",
	"internal/network",
	"internal/blocktree",
	"internal/slashing",
	"internal/validator",
}

// deterministic reports whether pkgPath is one of the deterministic
// packages or a subpackage of one. The analyzer tests' fixture packages,
// under internal/lint/testdata, count as deterministic too.
func deterministic(pkgPath string) bool {
	for _, p := range DeterministicPackages {
		if pkgPath == p || strings.HasSuffix(pkgPath, "/"+p) || strings.HasPrefix(pkgPath, p+"/") ||
			strings.Contains(pkgPath, "/"+p+"/") {
			return true
		}
	}
	return strings.Contains(pkgPath, "lint/testdata/")
}

// Run applies every analyzer to every package and returns the combined
// diagnostics sorted by file position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, pkg := range pkgs {
		dirs := indexDirectives(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Fset:  pkg.Fset,
				Files: pkg.Files,
				Pkg:   pkg.Types,
				Info:  pkg.Info,
				dirs:  dirs,
			}
			name := a.Name
			pass.report = func(d Diagnostic) {
				d.Analyzer = name
				out = append(out, d)
			}
			a.Run(pass)
		}
		// Unused or malformed waivers are themselves diagnostics: a waiver
		// that no longer waives anything is stale documentation.
		out = append(out, dirs.problems...)
		out = append(out, dirs.stale(ran)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return out
}
