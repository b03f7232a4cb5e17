package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// surfaceWaivers names the exported functions, methods, constants and
// package-level variables under internal/ and gasperleak/ that stay
// although no non-test package outside bench/ references them, each with
// the reason it stays. Keys are the declaring package's path inside the
// module, then the receiver type for a method, then the name:
// "internal/store.Results.Get", "internal/slashing.Conflict". A reason
// that starts with "bench/" marks a name kept only for the benchmark
// harness, which must still reference it.
var surfaceWaivers = map[string]string{
	// Only the benchmark harness calls these.
	"internal/attestation.Pool.Add":             "bench/ probes the pool one attestation at a time",
	"internal/attestation.Pool.AppendLinkTally": "bench/ probes a single epoch's link tally",
	"internal/attestation.Pool.VotesForEpoch":   "bench/ materializes an epoch's votes in its probes",
	"internal/beacon.Node.ReceiveAttestation":   "bench/ probes single-attestation delivery",
	"internal/engine.DecodeParams":              "bench/ decodes request params in serve-mix",
	"internal/engine.Lookup":                    "bench/ resolves checkpointable scenarios in its fixtures",
	"internal/engine.Params.MarkExplicit":       "bench/ marks explicit zeros in its fixtures",
	"internal/engine.RunCheckpointed":           "bench/ runs a checkpointed cell in reuse-tiers",
	"internal/engine.RunContext":                "bench/ runs cells on the default registry",
	"internal/incentives.Engine.ProcessEpoch":   "bench/ times the callback form of the incentive sweep in its incentives.process_epoch probe; ROADMAP item 15 moves the probe to ProcessColumn and deletes this shim",
	"internal/sim.Simulation.Cohorts":           "bench/ walks the cohorts in its probes and reuse-tiers",
	"internal/store.Checkpoints.LoadCheckpoint": "bench/ loads a checkpoint by copy in reuse-tiers",
	"internal/store.Results.Get":                "bench/ reads results back in reuse-tiers",
	"internal/store.Results.Put":                "bench/ writes results in reuse-tiers",

	// Helpers that tests in several packages share.
	"internal/store.CorruptForTest": "the server's store tests tear an entry with it",
	"internal/engine.StripMeta":     "engine, server, gasperleak and cmd/serve tests compare payloads with it",

	// Public API that a checked Example shows.
	"gasperleak.BounceContinuationProbability": "Example_bouncingAttack",
	"gasperleak.BounceMCGrid":                  "Example_bouncingAttack",
	"gasperleak.BounceWindow":                  "ExampleBounceWindow",
	"gasperleak.Client.SweepStream":            "Example_byzantineAcceleration",
	"gasperleak.CompressedSpec":                "Example_bouncingAttack, Example_leakObservatory and Example_partitionFinality",
	"gasperleak.DefaultSpec":                   "ExampleNewSimulation",
	"gasperleak.FormatEpoch":                   "Example_quickstart",
	"gasperleak.NewBouncer":                    "Example_bouncingAttack",
	"gasperleak.NewSimulation":                 "ExampleNewSimulation and the protocol-level examples",
	"gasperleak.PaperParams":                   "ExampleAnalyticParams_conflictEpochSlashing and Example_bouncingAttack",
	"internal/core.LeakSim.Run":                "gasperleak.LeakSim's run: ExampleLeakSim and the package quick start",
	"internal/sim.Recorder.Hook":               "gasperleak.MetricsRecorder's epoch hook: Example_leakObservatory",

	// Public API: the values of gasperleak's enumerations.
	"gasperleak.BlockMessage":       "a kind of gasperleak.SimMessage, which a custom adversary sends",
	"gasperleak.AttestationMessage": "a kind of gasperleak.SimMessage, which a custom adversary sends",
	"gasperleak.BatchMessage":       "a kind of gasperleak.SimMessage, which a custom adversary sends",
	"gasperleak.ByzAbsent":          "a gasperleak.LeakSim Mode, beside ByzDoubleVote, which ExampleLeakSim shows",
	"gasperleak.ByzDoubleVote":      "a gasperleak.LeakSim Mode: ExampleLeakSim",
	"gasperleak.ByzSemiActive":      "a gasperleak.LeakSim Mode, beside ByzDoubleVote, which ExampleLeakSim shows",
	"gasperleak.HonestOnly":         "a scenario argument of AnalyticParams.ConflictingFinalization, the public entry to the paper's conflict epochs",
	"gasperleak.WithSlashing":       "a scenario argument of AnalyticParams.ConflictingFinalization, the public entry to the paper's conflict epochs",
	"gasperleak.WithoutSlashing":    "a scenario argument of AnalyticParams.ConflictingFinalization, the public entry to the paper's conflict epochs",
	"internal/report.Near":          "the zero Bound: every Measure that names no bound is held Near its claim",

	// Kept for a planned use.
	"internal/slashing.Conflict": "the accountable-stake audit of ROADMAP item 19 classifies conflicting votes with it",
}

// fieldWaivers names the struct fields of the product packages that stay
// although every non-test reference outside bench/ lies in a function that
// only moves state (see movesState), each with the reason it stays. Keys
// are the declaring package's path inside the module, the struct type's
// name and the field's: "internal/engine.Grid.Modes".
var fieldWaivers = map[string]string{
	"internal/engine.Grid.Modes": "ParseGrid and Grid.Cells reach it by reflection, through paramDims' mode row",
	"internal/engine.Grid.Rates": "ParseGrid and Grid.Cells reach it by reflection, through paramDims' rate row",
	"internal/engine.Grid.GSTs":  "ParseGrid and Grid.Cells reach it by reflection, through paramDims' gst row",
}

// movesState reports whether a function named name only moves state from
// one place to another: a Clone*/clone* copy, a Reset, a CopyFrom, or a
// codec walk (walk*/Walk*). A field that only such functions touch is
// cloned, reset and written into frames, and read by nothing.
func movesState(name string) bool {
	for _, prefix := range []string{"Clone", "clone", "walk", "Walk"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return name == "Reset" || name == "CopyFrom"
}

// TestSurface fails on every exported function, method, constant or
// package-level variable of the product packages (internal/... and
// gasperleak/...) that no non-test package references, so code that only
// tests reach cannot grow back. bench/'s
// references do not count: a name only the benchmark harness calls is
// listed in surfaceWaivers with that reason, and goes when the harness
// stops calling it: a waiver whose reason starts with "bench/" fails once
// no bench/ package references its name. A method that completes its type's implementation of an
// interface the module can name is skipped, since a dynamic call through
// the interface reaches it with no static reference. A waiver whose name is
// now referenced, or no longer declared, fails too. The same holds for the
// struct fields of those packages (checkFields).
func TestSurface(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	module := ""
	for _, p := range pkgs {
		if m, ok := strings.CutSuffix(p.ImportPath, "/internal/lint"); ok {
			module = m
		}
	}
	if module == "" {
		t.Fatal("internal/lint not among the loaded packages")
	}
	rel := func(path string) string { return strings.TrimPrefix(path, module+"/") }

	ifaces := interfaceMethodSets(pkgs)
	used, benchUsed := make(map[string]bool), make(map[string]bool)
	declared := make(map[string]types.Object)
	for _, p := range pkgs {
		r := rel(p.ImportPath)
		inBench := r == "bench" || strings.HasPrefix(r, "bench/")
		for _, obj := range p.Info.Uses {
			switch obj := obj.(type) {
			case *types.Func:
				if obj.Pkg() == nil {
					continue
				}
				if inBench {
					benchUsed[funcKey(rel, obj.Origin())] = true
				} else {
					used[funcKey(rel, obj.Origin())] = true
				}
			case *types.Const, *types.Var:
				if !inBench && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
					used[rel(obj.Pkg().Path())+"."+obj.Name()] = true
				}
			}
		}
		if !strings.HasPrefix(r, "internal/") && r != "gasperleak" && !strings.HasPrefix(r, "gasperleak/") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					declared[funcKey(rel, obj)] = obj
				}
			case *types.Const, *types.Var:
				if obj.Exported() {
					declared[r+"."+name] = obj
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() || !obj.Exported() || types.IsInterface(named) {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !ifaces.reaches(named, m.Name()) {
						declared[funcKey(rel, m)] = m
					}
				}
			}
		}
	}

	checkFields(t, pkgs, rel)

	var unused []string
	for key := range declared {
		if !used[key] && surfaceWaivers[key] == "" {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		obj := declared[key]
		t.Errorf("%s: %s is exported but no non-test package outside bench/ references it; delete it, or waive it in surfaceWaivers with a reason",
			pkgs[0].Fset.Position(obj.Pos()), key)
	}
	waived := make([]string, 0, len(surfaceWaivers))
	for key := range surfaceWaivers {
		waived = append(waived, key)
	}
	sort.Strings(waived)
	for _, key := range waived {
		switch {
		case strings.TrimSpace(surfaceWaivers[key]) == "":
			t.Errorf("surfaceWaivers[%q] gives no reason", key)
		case declared[key] == nil:
			t.Errorf("surfaceWaivers[%q] is stale: no exported product function or method has that name", key)
		case used[key]:
			t.Errorf("surfaceWaivers[%q] is stale: a non-test package outside bench/ references it", key)
		case strings.HasPrefix(surfaceWaivers[key], "bench/") && !benchUsed[key]:
			t.Errorf("surfaceWaivers[%q] is stale: its reason names bench/, and no bench/ package references it", key)
		}
	}
}

// checkFields fails on every field of a named struct type of the product
// packages whose every non-test reference outside bench/ lies in a function
// that only moves state, unless fieldWaivers gives a reason: such a field
// is cloned at each fork, reset at each cold start and written into each
// frame, and no code reads it. An embedded field, or one with a json tag,
// counts as read (promotion and encoding/json reach it with no reference).
// A field is named by package path, type and field name, so that one field
// compares equal whether its package was checked from source or imported
// from export data; a field of a generic type is named by its origin's.
func checkFields(t *testing.T, pkgs []*Package, rel func(string) string) {
	t.Helper()
	// owner names each field of the named structs of a package, as one
	// view of that package sees them; a field of an unnamed or local
	// struct has no name, and the check skips it.
	owner := make(map[*types.Var]string)
	name := func(v *types.Var) string {
		v = v.Origin()
		if key, ok := owner[v]; ok {
			return key
		}
		scope := v.Pkg().Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					owner[st.Field(i)] = rel(tn.Pkg().Path()) + "." + tn.Name() + "." + st.Field(i).Name()
				}
			}
		}
		if _, ok := owner[v]; !ok {
			owner[v] = ""
		}
		return owner[v]
	}

	declared := make(map[string]*types.Var)
	read := make(map[string]bool)
	for _, p := range pkgs {
		r := rel(p.ImportPath)
		if r == "bench" || strings.HasPrefix(r, "bench/") {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				moves := ok && movesState(fd.Name.Name)
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if v, field := p.Info.Uses[id].(*types.Var); ok && field && v.IsField() && !moves {
						read[name(v)] = true
					}
					return true
				})
			}
		}
		if !strings.HasPrefix(r, "internal/") && r != "gasperleak" && !strings.HasPrefix(r, "gasperleak/") {
			continue
		}
		scope := p.Types.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				f := st.Field(i)
				if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); !f.Embedded() && !tagged && f.Name() != "_" {
					declared[name(f)] = f
				}
			}
		}
	}

	var unread []string
	for key := range declared {
		if !read[key] && fieldWaivers[key] == "" {
			unread = append(unread, key)
		}
	}
	sort.Strings(unread)
	for _, key := range unread {
		t.Errorf("%s: field %s is referenced only by Clone*, Reset, CopyFrom and codec walks, if at all; delete it, or waive it in fieldWaivers with a reason",
			pkgs[0].Fset.Position(declared[key].Pos()), key)
	}
	waived := make([]string, 0, len(fieldWaivers))
	for key := range fieldWaivers {
		waived = append(waived, key)
	}
	sort.Strings(waived)
	for _, key := range waived {
		switch {
		case strings.TrimSpace(fieldWaivers[key]) == "":
			t.Errorf("fieldWaivers[%q] gives no reason", key)
		case declared[key] == nil:
			t.Errorf("fieldWaivers[%q] is stale: no field of a product struct has that name", key)
		case read[key]:
			t.Errorf("fieldWaivers[%q] is stale: a function that does more than move state references it", key)
		}
	}
}

// funcKey names a function, or a method by its receiver's type name, with
// the declaring package's module-relative path.
func funcKey(rel func(string) string, fn *types.Func) string {
	key := rel(fn.Pkg().Path()) + "."
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// methodSets holds the method sets, name to signature, of every interface
// the module can name: those declared in or imported by its packages, the
// ones written inline in its code, and error.
type methodSets []map[string]string

// signature renders a method's parameter and result types with full
// package paths, so that one type compares equal whether it was checked
// from source or imported from export data, whatever its parameters are
// named.
func signature(fn *types.Func) string {
	sig := fn.Signature()
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), (*types.Package).Path) + ",")
		}
		b.WriteString(";")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

func interfaceMethodSets(pkgs []*Package) methodSets {
	var sets methodSets
	added := make(map[string]bool)
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			return
		}
		key := types.TypeString(iface, (*types.Package).Path)
		if added[key] {
			return
		}
		added[key] = true
		set := make(map[string]string, iface.NumMethods())
		for i := 0; i < iface.NumMethods(); i++ {
			set[iface.Method(i).Name()] = signature(iface.Method(i))
		}
		sets = append(sets, set)
	}
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, p := range pkgs {
		visit(p.Types)
		for _, tv := range p.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return sets
}

// reaches reports whether named, or a pointer to it, satisfies some
// interface that has a method called name: a dynamic call through that
// interface may then reach the method with no static reference to it.
func (sets methodSets) reaches(named *types.Named, name string) bool {
	have := make(map[string]string)
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj().(*types.Func)
		have[fn.Name()] = signature(fn)
	}
	for _, set := range sets {
		if _, ok := set[name]; !ok {
			continue
		}
		all := true
		for m, sig := range set {
			all = all && have[m] == sig
		}
		if all {
			return true
		}
	}
	return false
}
