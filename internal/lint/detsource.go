package lint

import (
	"go/ast"
	"go/types"
)

// DetSource flags sources of nondeterminism inside the deterministic
// packages — the static twin of the runtime 2×2 (view layout ×
// fork-choice engine) equivalence matrix:
//
//   - time.Now / time.Since / time.Until: wall clocks on a result path
//     make payloads machine-dependent;
//   - the global math/rand (and math/rand/v2) top-level functions, which
//     draw from a process-wide source instead of a per-cell seeded
//     *rand.Rand — constructors (New, NewSource, NewPCG, ...) are fine;
//   - select statements with two or more communication cases, whose
//     firing order the runtime randomizes — the canonical way sweep
//     results get reordered across runs;
//   - go statements, whose goroutines the scheduler interleaves as it
//     likes, so their output is only as deterministic as its merge.
//
// A finding on a path that provably never reaches a result payload
// (wall-clock provenance, cancellation plumbing whose output is merged
// deterministically) is waived with //gasper:nondet <reason>; a go
// statement's reason says how its output is merged deterministically.
var DetSource = &Analyzer{
	Name: "detsource",
	Doc: "flag wall clocks, global randomness, select fan-in and goroutines in " +
		"deterministic packages unless waived with //gasper:nondet",
	Run: runDetSource,
}

// randConstructors are the math/rand names that build seeded sources
// rather than drawing from the global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func runDetSource(pass *Pass) {
	if !deterministic(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.SelectorExpr:
				fn, ok := pass.Info.Uses[node.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				// Only package-level functions: methods on *rand.Rand or
				// a time.Time value are deterministic given their receiver.
				if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					switch fn.Name() {
					case "Now", "Since", "Until":
						if !pass.waived(node.Pos(), dirNondet) {
							pass.Reportf(node.Pos(), "time.%s reads the wall clock on a deterministic path; "+
								"derive timing from the simulated clock or waive with //gasper:nondet <reason>", fn.Name())
						}
					}
				case "math/rand", "math/rand/v2":
					if randConstructors[fn.Name()] {
						return true
					}
					if !pass.waived(node.Pos(), dirNondet) {
						pass.Reportf(node.Pos(), "global %s.%s draws from the process-wide source; "+
							"use a per-cell seeded *rand.Rand or waive with //gasper:nondet <reason>",
							fn.Pkg().Name(), fn.Name())
					}
				}
			case *ast.GoStmt:
				if !pass.waived(node.Pos(), dirNondet) {
					pass.Reportf(node.Pos(), "go statement runs concurrently with its caller on a deterministic path; "+
						"merge its output deterministically and waive with //gasper:nondet <how it is merged>")
				}
			case *ast.SelectStmt:
				comm := 0
				for _, c := range node.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						comm++
					}
				}
				if comm >= 2 && !pass.waived(node.Pos(), dirNondet) {
					pass.Reportf(node.Pos(), "select with %d communication cases fires in runtime-randomized order; "+
						"merge results deterministically and waive with //gasper:nondet <reason>", comm)
				}
			}
			return true
		})
	}
}
