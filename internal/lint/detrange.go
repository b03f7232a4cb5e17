package lint

import (
	"go/ast"
	"go/types"
)

// DetRange flags map iteration inside the deterministic packages. Go
// randomizes map iteration order per run, so a map range on a
// result-producing path is a seed-determinism bug waiting for a hash-seed
// change. The check states a rule instead of proving one: every `range`
// over a map, and every `range` directly over maps.All, maps.Keys or
// maps.Values (iterators that yield in the map's order), is a diagnostic
// unless the loop carries a //gasper:ordered <reason> waiver. Sorting first
// is the rewrite the rule asks for — `range slices.Sorted(maps.Keys(m))`
// ranges over a slice and passes.
var DetRange = &Analyzer{
	Name: "detrange",
	Doc: "flag range over a map or over maps.All/Keys/Values in deterministic " +
		"packages unless waived with //gasper:ordered <reason>",
	Run: runDetRange,
}

func runDetRange(pass *Pass) {
	if !deterministic(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			what := pass.mapOrdered(rs.X)
			if what == "" || pass.waived(rs.Pos(), dirOrdered) {
				return true
			}
			pass.Reportf(rs.Pos(), "range over %s follows map iteration order, which is nondeterministic; "+
				"range over slices.Sorted(maps.Keys(m)) or waive with //gasper:ordered <reason>", what)
			return true
		})
	}
}

// mapOrdered names what x yields in map iteration order — "a map" for a
// map value, "maps.Keys" (All, Values) for a direct call to one of the maps
// iterators — or returns "" when x is anything else.
func (p *Pass) mapOrdered(x ast.Expr) string {
	if tv, ok := p.Info.Types[x]; ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			return "a map"
		}
	}
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "maps" {
		return ""
	}
	switch fn.Name() {
	case "All", "Keys", "Values":
		return "maps." + fn.Name()
	}
	return ""
}
