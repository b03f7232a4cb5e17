package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIFuzzesEveryTarget: the fuzz job of .github/workflows/ci.yml runs
// exactly the module's native fuzz targets. Its `for target in …` list
// names each as dir:FuzzName; a Fuzz function the list leaves out is never
// fuzzed, and a listed one that no longer exists fails only in CI.
func TestCIFuzzesEveryTarget(t *testing.T) {
	root := filepath.Join("..", "..")
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	list := regexp.MustCompile(`(?s)for target in (.*?); do`).FindSubmatch(ci)
	if list == nil {
		t.Fatal("ci.yml has no `for target in …; do` fuzz loop")
	}
	listed := strings.Fields(strings.ReplaceAll(string(list[1]), `\`, " "))
	slices.Sort(listed)

	var declared []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Fuzz") {
				declared = append(declared, filepath.ToSlash(dir)+":"+fd.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(declared)

	for _, target := range declared {
		if _, found := slices.BinarySearch(listed, target); !found {
			t.Errorf("%s is a fuzz target that ci.yml's fuzz job does not run", target)
		}
	}
	for _, target := range listed {
		if _, found := slices.BinarySearch(declared, target); !found {
			t.Errorf("ci.yml's fuzz job runs %s, which is no fuzz target of the module", target)
		}
	}
}
