package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/engine"
)

// goldenSeed is the workload seed whose payload digests are checked in.
const goldenSeed = 1

//go:embed golden
var embeddedGolden embed.FS

// goldenFile holds one digest per distinct op of one scale, keyed by the
// op's canonical cell key. All four workloads share the file, so a cell two
// workloads answer by different paths (cold in grid-cold, warm and stored in
// reuse-tiers) is pinned to one digest.
func goldenFile(scaleName string) string { return scaleName + ".json" }

// loadGolden reads the digest table for a scale: from dir when given (tests,
// -update-golden), else from the copy embedded at build time. A missing file
// is an empty table.
func loadGolden(dir, scaleName string) (map[string]string, error) {
	var data []byte
	var err error
	if dir != "" {
		data, err = os.ReadFile(filepath.Join(dir, goldenFile(scaleName)))
	} else {
		data, err = embeddedGolden.ReadFile("golden/" + goldenFile(scaleName))
	}
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]string{}, nil
		}
		return nil, err
	}
	table := map[string]string{}
	if err := json.Unmarshal(data, &table); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenFile(scaleName), err)
	}
	return table, nil
}

// saveGolden merges the digests a run saw into dir's table. A key already
// present with another digest is a cross-workload identity violation, not
// something to overwrite.
func saveGolden(dir, scaleName string, seen map[string]string) error {
	table, err := loadGolden(dir, scaleName)
	if err != nil {
		return err
	}
	for k, d := range seen {
		if old, ok := table[k]; ok && old != d {
			return fmt.Errorf("golden: %q digests to %s here but %s in %s (delete the file to regenerate)", k, d, old, goldenFile(scaleName))
		}
		table[k] = d
	}
	data, err := json.MarshalIndent(table, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, goldenFile(scaleName)), append(data, '\n'), 0o644)
}

// digest hashes a result's deterministic payload: the JSON encoding with
// execution metadata stripped.
func digest(res engine.Result) string {
	payload, err := json.Marshal(res.WithoutMeta())
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:16])
}

// checker counts attempted and failed ops and enforces byte identity: the
// first digest seen for a key is the reference every later path must match
// (cold = warm = stored = resumed = HTTP), and on the golden seed it must
// also match the checked-in digest.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	seen      map[string]string
	golden    map[string]string // nil off the golden seed
	// bulk collects digests of high-cardinality op classes (the distinct
	// /run misses), folded into one golden entry per class by finish.
	bulk     map[string][]string
	problems []string
}

func newChecker(golden map[string]string) *checker {
	return &checker{seen: map[string]string{}, golden: golden, bulk: map[string][]string{}}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// record counts one op: it fails on an error, a failed result or an unmet
// semantic condition (ok false, what says which); otherwise passed decides
// what the payload digest is held against. passed runs under c.mu.
func (c *checker) record(key string, res engine.Result, err error, ok bool, what string, passed func(d string)) {
	d := digest(res)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	switch {
	case err != nil:
		c.fail("%s: %v", key, err)
	case res.Err != "":
		c.fail("%s: %s", key, res.Err)
	case !ok:
		c.fail("%s: %s", key, what)
	default:
		passed(d)
	}
}

// op records one op's outcome under its canonical key.
func (c *checker) op(key string, res engine.Result, err error) {
	c.expect(key, res, err, true, "")
}

// expect is op with a semantic condition the result must also satisfy.
func (c *checker) expect(key string, res engine.Result, err error, ok bool, what string) {
	c.record(key, res, err, ok, what, func(d string) { c.identity(key, d) })
}

// bulkOp counts one op of a high-cardinality class: its digest joins the
// class aggregate when it is one of the fixed first `golden` ops of the run
// (so the aggregate does not depend on how many repetitions ran).
func (c *checker) bulkOp(class, key string, res engine.Result, err error, ok bool, what string, golden bool) {
	c.record(key, res, err, ok, what, func(d string) {
		if golden {
			c.bulk[class] = append(c.bulk[class], key+"="+d)
		}
	})
}

// identity compares a digest with the key's reference and golden entries.
// The caller holds c.mu.
func (c *checker) identity(key, d string) {
	ref, ok := c.seen[key]
	if !ok {
		c.seen[key] = d
		if want, pinned := c.golden[key]; pinned && want != d {
			c.fail("%s: payload digest %s, golden %s", key, d, want)
		}
		return
	}
	if ref != d {
		c.fail("%s: payload digest %s differs from the first path's %s", key, d, ref)
	}
}

// check counts a harness-level assertion (a frame comparison, a counter that
// must be zero) as one op.
func (c *checker) check(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.fail(format, args...)
	}
}

// finish folds each bulk class into one identity entry, order-independent.
func (c *checker) finish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	classes := make([]string, 0, len(c.bulk))
	for class := range c.bulk {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		lines := c.bulk[class]
		sort.Strings(lines)
		sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
		c.attempted++
		c.identity(fmt.Sprintf("aggregate|%s|%d", class, len(lines)), hex.EncodeToString(sum[:16]))
	}
	c.bulk = map[string][]string{}
}
