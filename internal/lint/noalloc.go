package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc checks functions annotated //gasper:noalloc — the CI-gated
// hot paths (steady-state Head, ProcessColumn, the epoch-transition
// sweep) — for syntactically allocating constructs:
//
//   - make, new, and map/slice composite literals (array and plain
//     struct literals live on the stack);
//   - taking the address of a composite literal (&T{} escapes);
//   - append whose destination is a fresh local slice (appending a
//     caller-owned scratch parameter or a receiver field back onto
//     itself is the amortized-zero pattern and is allowed);
//   - fmt.* calls (interface boxing plus formatting state);
//   - function literals (closures capture by reference and escape);
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - go statements (new goroutine = new stack).
//
// The check is syntactic on purpose: it cannot see escape analysis, so
// the runtime -benchmem CI gates remain the ground truth — but it fails
// at build time for the whole tree, not at bench time for the paths a
// benchmark happens to drive. A deliberate allocation on a cold path
// inside a hot function (error exits, one-time growth) is waived line
// by line with //gasper:alloc <reason>.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc: "flag syntactically allocating constructs inside functions " +
		"annotated //gasper:noalloc; waive cold paths with //gasper:alloc",
	Run: runNoAlloc,
}

func runNoAlloc(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcAnnotated(fd, dirNoAlloc) {
				continue
			}
			pass.checkNoAlloc(fd)
		}
	}
}

func (p *Pass) checkNoAlloc(fd *ast.FuncDecl) {
	report := func(pos token.Pos, format string, args ...any) {
		if p.waived(pos, dirAlloc) {
			return
		}
		p.Reportf(pos, format, args...)
	}
	// Parameters and receiver are caller-owned: appending back onto them
	// is amortized-zero when the caller preallocates.
	callerOwned := map[types.Object]bool{}
	if fd.Recv != nil {
		for _, r := range fd.Recv.List {
			for _, name := range r.Names {
				if o := p.Info.Defs[name]; o != nil {
					callerOwned[o] = true
				}
			}
		}
	}
	if fd.Type.Params != nil {
		for _, par := range fd.Type.Params.List {
			for _, name := range par.Names {
				if o := p.Info.Defs[name]; o != nil {
					callerOwned[o] = true
				}
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CompositeLit:
			tv, ok := p.Info.Types[node]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				report(node.Pos(), "map literal allocates in //gasper:noalloc function %s", fd.Name.Name)
			case *types.Slice:
				report(node.Pos(), "slice literal allocates in //gasper:noalloc function %s", fd.Name.Name)
			}
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, isLit := node.X.(*ast.CompositeLit); isLit {
					report(node.Pos(), "&composite literal escapes to the heap in //gasper:noalloc function %s", fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			p.checkNoAllocCall(fd, node, callerOwned, report)
		case *ast.FuncLit:
			report(node.Pos(), "closure may capture and escape in //gasper:noalloc function %s", fd.Name.Name)
			return false // don't descend: the closure body is not the hot path's frame
		case *ast.BinaryExpr:
			if node.Op == token.ADD && p.isStringExpr(node.X) {
				report(node.Pos(), "string concatenation allocates in //gasper:noalloc function %s", fd.Name.Name)
			}
		case *ast.GoStmt:
			report(node.Pos(), "go statement allocates a goroutine in //gasper:noalloc function %s", fd.Name.Name)
		}
		return true
	})
}

func (p *Pass) checkNoAllocCall(fd *ast.FuncDecl, call *ast.CallExpr, callerOwned map[types.Object]bool,
	report func(token.Pos, string, ...any)) {
	// Conversions: string <-> []byte / []rune copy their payload.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		from, okFrom := p.Info.Types[call.Args[0]]
		if okFrom {
			_, toSlice := to.(*types.Slice)
			_, fromSlice := from.Type.Underlying().(*types.Slice)
			toStr := isString(to)
			fromStr := isString(from.Type.Underlying())
			if (toSlice && fromStr) || (toStr && fromSlice) {
				report(call.Pos(), "string conversion copies its payload in //gasper:noalloc function %s", fd.Name.Name)
			}
		}
		return
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := p.Info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates in //gasper:noalloc function %s", fd.Name.Name)
			case "new":
				report(call.Pos(), "new allocates in //gasper:noalloc function %s", fd.Name.Name)
			case "append":
				if len(call.Args) > 0 {
					if dst := p.rootObj(call.Args[0]); dst != nil && callerOwned[dst] {
						return // caller-owned scratch: amortized zero
					}
					if sel, isSel := call.Args[0].(*ast.SelectorExpr); isSel {
						if root := p.rootObj(sel.X); root != nil && callerOwned[root] {
							return // receiver-field scratch: amortized zero
						}
					}
				}
				report(call.Pos(), "append to a non-caller-owned slice may grow in //gasper:noalloc function %s", fd.Name.Name)
			}
		}
	case *ast.SelectorExpr:
		if obj, ok := p.Info.Uses[fun.Sel]; ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			report(call.Pos(), "fmt.%s boxes its operands in //gasper:noalloc function %s", fun.Sel.Name, fd.Name.Name)
		}
	}
}

// rootObj walks to the base identifier of an lvalue-ish expression
// (x, x.f, x[i], *x, (x)) and returns its object.
func (p *Pass) rootObj(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if o := p.Info.Uses[x]; o != nil {
				return o
			}
			return p.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func (p *Pass) isStringExpr(e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Type != nil && isString(tv.Type.Underlying())
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
