package refmodel

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestProductDoesNotLinkRefmodel: the reference is for tests only. No
// binary under cmd/ and not the public gasperleak package depends on this
// package, so a product build can never select it.
func TestProductDoesNotLinkRefmodel(t *testing.T) {
	list := exec.Command("go", "list", "-deps", "./cmd/...", "./gasperleak")
	list.Dir = "../.."
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	deps := strings.Fields(string(out))
	if !slices.Contains(deps, "repro/internal/forkchoice") {
		t.Fatalf("the product's dependencies lack repro/internal/forkchoice; the list is not the product's:\n%s", out)
	}
	if slices.Contains(deps, "repro/internal/refmodel") {
		t.Fatal("a product package imports repro/internal/refmodel; only _test.go files may")
	}
}
