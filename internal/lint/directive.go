package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive verbs. Waivers (`ordered`, `nondet`, `alloc`, `nocodec`,
// `shallow`) require a reason after the verb; `noalloc` is an annotation
// that turns the noalloc analyzer on for the function it documents.
const (
	dirOrdered = "ordered" // detrange: iteration order is harmless here
	dirNondet  = "nondet"  // detsource: nondeterminism source is off the result path
	dirAlloc   = "alloc"   // noalloc: this construct may allocate (cold path)
	dirNoCodec = "nocodec" // codecfields: field is derived, rebuilt on decode
	dirShallow = "shallow" // codecfields: Clone may alias this field
	dirNoAlloc = "noalloc" // annotation: function must not allocate
)

// waiverVerbs maps each waiver verb to the analyzer that consumes it
// through Pass.waived — the one whose run decides whether the waiver is
// stale. The codecfields waivers sit on struct fields and are read there
// directly, so they name no analyzer.
var waiverVerbs = map[string]string{
	dirOrdered: "detrange",
	dirNondet:  "detsource",
	dirAlloc:   "noalloc",
	dirNoCodec: "",
	dirShallow: "",
}

// directive is one parsed //gasper:<verb> <reason> comment.
type directive struct {
	verb   string
	reason string
	pos    token.Position
	// used is set when the directive waives a finding.
	used bool
}

// directiveIndex holds a package's well-formed directives in source order.
// A waiver applies to a flagged construct when it sits on the same line as
// the construct or on the line directly above it — the two places a human
// writes an inline or leading comment.
type directiveIndex struct {
	all      []*directive
	problems []Diagnostic
}

const directivePrefix = "//gasper:"

// indexDirectives scans every comment in the package for gasper
// directives. Malformed ones (unknown verb, waiver without a reason) are
// recorded as diagnostics so a typo cannot silently disable a check.
func indexDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				body := strings.TrimPrefix(c.Text, directivePrefix)
				verb, reason, _ := strings.Cut(body, " ")
				reason = strings.TrimSpace(reason)
				pos := fset.Position(c.Pos())
				_, waiver := waiverVerbs[verb]
				switch {
				case verb == dirNoAlloc:
					// Annotation; reason optional.
				case waiver:
					if reason == "" {
						idx.problems = append(idx.problems, Diagnostic{
							Analyzer: "gasperdirective",
							Pos:      pos,
							Message:  "//gasper:" + verb + " waiver needs a reason",
						})
						continue
					}
				default:
					idx.problems = append(idx.problems, Diagnostic{
						Analyzer: "gasperdirective",
						Pos:      pos,
						Message:  "unknown directive //gasper:" + verb,
					})
					continue
				}
				idx.all = append(idx.all, &directive{verb: verb, reason: reason, pos: pos})
			}
		}
	}
	return idx
}

// waived reports whether a construct at pos carries a verb waiver on its
// own line or the line directly above, and marks that waiver used.
func (p *Pass) waived(pos token.Pos, verb string) bool {
	at := p.Fset.Position(pos)
	for _, d := range p.dirs.all {
		if d.verb == verb && d.pos.Filename == at.Filename && (d.pos.Line == at.Line || d.pos.Line == at.Line-1) {
			d.used = true
			return true
		}
	}
	return false
}

// stale returns a diagnostic for every waiver that waived nothing, among
// those consumed by an analyzer that ran (so -only cannot misfire).
func (idx *directiveIndex) stale(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range idx.all {
		if !d.used && ran[waiverVerbs[d.verb]] {
			out = append(out, Diagnostic{
				Analyzer: "gasperdirective",
				Pos:      d.pos,
				Message:  "unused //gasper:" + d.verb + " waiver: nothing on its line or the next needs it",
			})
		}
	}
	return out
}

// fieldWaived reports whether a struct field declaration carries a verb
// waiver in its doc or trailing comment.
func fieldWaived(field *ast.Field, verb string) bool {
	for _, cg := range [2]*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, directivePrefix+verb) {
				rest := strings.TrimPrefix(c.Text, directivePrefix+verb)
				if rest == "" || strings.HasPrefix(rest, " ") {
					return true
				}
			}
		}
	}
	return false
}

// funcAnnotated reports whether fn's doc comment carries the given
// annotation verb (e.g. //gasper:noalloc).
func funcAnnotated(fn *ast.FuncDecl, verb string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == directivePrefix+verb || strings.HasPrefix(c.Text, directivePrefix+verb+" ") {
			return true
		}
	}
	return false
}
