package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CodecFields cross-checks every snapshot codec walk and Clone method
// against its struct definition, turning "new field silently dropped from
// checkpoints" from a runtime-corruption bug into a build break — the
// static twin of engine.TestCellKeyCoversEveryParamsField.
//
// Codec shape: a walk is a method named walk/Walk taking a *codec.Coder. It
// is both sides of the codec at once — the one Coder encodes or decodes —
// so every field of its receiver's struct must be referenced by it, in an
// `if c.Encoding()` branch or outside one, unless the field declaration
// carries //gasper:nocodec <reason> (derived state the decode rebuilds).
//
// Clone methods (Clone*/clone* on the subject) must reference every
// field too; a whole-struct copy (`out := *t`) covers value-typed fields
// but NOT reference-typed ones (slice/map/pointer/chan/func/interface),
// which alias the original unless explicitly deep-copied or waived with
// //gasper:shallow <reason>.
var CodecFields = &Analyzer{
	Name: "codecfields",
	Doc: "require every struct field to be covered by its codec walk " +
		"and deep-copied by Clone, unless waived with //gasper:nocodec / //gasper:shallow",
	Run: runCodecFields,
}

// codecFunc is a walk or a Clone of one subject type.
type codecFunc struct {
	decl *ast.FuncDecl
	kind string // "walk", "clone"
}

func runCodecFields(pass *Pass) {
	subjects := map[*types.TypeName][]codecFunc{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			kind := ""
			switch name := fd.Name.Name; {
			case (name == "walk" || name == "Walk") && pass.hasCodecParam(fd, "Coder"):
				kind = "walk"
			case strings.HasPrefix(name, "Clone") || strings.HasPrefix(name, "clone"):
				kind = "clone"
			default:
				continue
			}
			if s := pass.receiverSubject(fd); s != nil {
				subjects[s] = append(subjects[s], codecFunc{fd, kind})
			}
		}
	}

	names := make([]*types.TypeName, 0, len(subjects))
	for s := range subjects {
		names = append(names, s)
	}
	sort.Slice(names, func(i, j int) bool { return names[i].Name() < names[j].Name() })

	for _, subj := range names {
		if subj.Pkg() != pass.Pkg {
			continue // cross-package subjects have no local field comments to waive with
		}
		st, ok := subj.Type().Underlying().(*types.Struct)
		if !ok || st.NumFields() == 0 {
			continue
		}
		astFields := pass.structASTFields(subj, st)
		for _, fn := range subjects[subj] {
			refs, all := pass.fieldRefs(fn.decl, subj)
			wholeCopy := all || pass.hasWholeCopy(fn.decl, subj)
			for i := 0; i < st.NumFields(); i++ {
				field, af := st.Field(i), astFields[i]
				if field.Name() == "_" || refs[field.Name()] {
					continue
				}
				switch {
				case fn.kind == "walk":
					if !all && (af == nil || !fieldWaived(af, dirNoCodec)) {
						pass.Reportf(fieldPos(af, subj), "field %s.%s is not referenced by walk %s; "+
							"snapshots will silently drop it — walk it or waive with //gasper:nocodec <reason>",
							subj.Name(), field.Name(), fn.decl.Name.Name)
					}
				case wholeCopy && shallowSafe(field.Type()), af != nil && fieldWaived(af, dirShallow):
				case wholeCopy:
					pass.Reportf(fieldPos(af, subj), "reference-typed field %s.%s is shallow-aliased by the "+
						"whole-struct copy in %s; deep-copy it or waive with //gasper:shallow <reason>",
						subj.Name(), field.Name(), fn.decl.Name.Name)
				default:
					pass.Reportf(fieldPos(af, subj), "field %s.%s is not referenced by %s; "+
						"clones will drop it — copy it or waive with //gasper:shallow <reason>",
						subj.Name(), field.Name(), fn.decl.Name.Name)
				}
			}
		}
	}
}

// hasCodecParam reports whether fd has a parameter of type *P where P is
// a named type called typeName ("Coder") living in a package named
// "codec" — or in the current package, so analyzer fixtures can
// define their own stand-ins.
func (p *Pass) hasCodecParam(fd *ast.FuncDecl, typeName string) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, f := range fd.Type.Params.List {
		tv, ok := p.Info.Types[f.Type]
		if !ok {
			continue
		}
		t := tv.Type
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		named, isNamed := t.(*types.Named)
		if !isNamed {
			continue
		}
		obj := named.Obj()
		if obj.Name() != typeName || obj.Pkg() == nil {
			continue
		}
		if obj.Pkg().Name() == "codec" || obj.Pkg() == p.Pkg {
			return true
		}
	}
	return false
}

// receiverSubject resolves a method's receiver to its named type.
func (p *Pass) receiverSubject(fd *ast.FuncDecl) *types.TypeName {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	tv, ok := p.Info.Types[fd.Recv.List[0].Type]
	if !ok {
		return nil
	}
	return namedTypeName(tv.Type)
}

// namedTypeName unwraps pointers and generic instantiations down to the
// declaring *types.TypeName.
func namedTypeName(t types.Type) *types.TypeName {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Origin().Obj()
		default:
			return nil
		}
	}
}

// fieldRefs walks fn's body and returns the set of subject field names it
// references — via selector expressions, keyed composite literals of the
// subject type, or (all=true) an unkeyed composite literal covering every
// field positionally.
func (p *Pass) fieldRefs(fn *ast.FuncDecl, subj *types.TypeName) (refs map[string]bool, all bool) {
	refs = map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.SelectorExpr:
			sel, ok := p.Info.Selections[node]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			if namedTypeName(sel.Recv()) == subj {
				refs[node.Sel.Name] = true
			}
		case *ast.CompositeLit:
			tv, ok := p.Info.Types[node]
			if !ok || namedTypeName(tv.Type) != subj {
				return true
			}
			if len(node.Elts) == 0 {
				return true
			}
			for _, e := range node.Elts {
				kv, isKV := e.(*ast.KeyValueExpr)
				if !isKV {
					all = true // positional literal: compiler enforces all fields
					return true
				}
				if id, isIdent := kv.Key.(*ast.Ident); isIdent {
					refs[id.Name] = true
				}
			}
		}
		return true
	})
	return refs, all
}

// hasWholeCopy reports whether fn's body copies a whole subject value
// (`out := *t`, `*out = *t`, passing *t to a helper, returning *t) —
// which covers every value-typed field at once.
func (p *Pass) hasWholeCopy(fn *ast.FuncDecl, subj *types.TypeName) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n.(type) {
		case *ast.StarExpr, *ast.Ident, *ast.CallExpr:
			e := n.(ast.Expr)
			tv, ok := p.Info.Types[e]
			if ok && tv.Value == nil && tv.IsValue() {
				if namedTypeName(tv.Type) == subj {
					if _, isPtr := tv.Type.(*types.Pointer); !isPtr {
						found = true
					}
				}
			}
		}
		return true
	})
	return found
}

// structASTFields pairs the flattened AST field declarations of subj's
// struct type with the type-checker's field order, so field waivers and
// report positions resolve to source. Index i corresponds to
// st.Field(i); entries may be nil if the declaration is not found.
func (p *Pass) structASTFields(subj *types.TypeName, st *types.Struct) []*ast.Field {
	out := make([]*ast.Field, st.NumFields())
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != subj.Name() {
				return true
			}
			if p.Info.Defs[ts.Name] != subj {
				return true
			}
			stAST, ok := ts.Type.(*ast.StructType)
			if !ok {
				return false
			}
			i := 0
			for _, field := range stAST.Fields.List {
				n := len(field.Names)
				if n == 0 {
					n = 1 // embedded
				}
				for k := 0; k < n && i < len(out); k++ {
					out[i] = field
					i++
				}
			}
			return false
		})
	}
	return out
}

// fieldPos returns the best position to report a field finding at.
func fieldPos(af *ast.Field, subj *types.TypeName) token.Pos {
	if af != nil {
		return af.Pos()
	}
	return subj.Pos()
}

// shallowSafe reports whether a field type is safe to share via a
// whole-struct copy: values all the way down. Slices, maps, pointers,
// channels, functions, interfaces, and type parameters alias.
func shallowSafe(t types.Type) bool {
	switch tt := t.Underlying().(type) {
	case *types.Basic:
		return true
	case *types.Array:
		return shallowSafe(tt.Elem())
	case *types.Struct:
		for i := 0; i < tt.NumFields(); i++ {
			if !shallowSafe(tt.Field(i).Type()) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
