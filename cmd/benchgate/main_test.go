package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// canned is `go test -bench` output as the bench job sees it: six packages,
// one of them run twice (the fork sweep has its own line at -benchtime 3x),
// a GOMAXPROCS suffix on every name, a benchmark whose own name ends in a
// number, custom metrics, and the lines around them.
const canned = `goos: linux
goarch: amd64
pkg: repro/internal/blocktree
BenchmarkTreeIndex/has-hit-2        	144019334	         8.619 ns/op	       0 B/op	       0 allocs/op
BenchmarkTreeIndex/indexof-hit-2    	136375832	         8.661 ns/op	       0 B/op	       0 allocs/op
BenchmarkTreeIndex/has-miss-2       	145950458	         8.324 ns/op	       0 B/op	       0 allocs/op
BenchmarkTreeIndex/indexof-miss-2   	146266045	         8.462 ns/op	       0 B/op	       0 allocs/op
BenchmarkTreeIndex/add-1024-2       	   17694	     67545 ns/op	   91368 B/op	      17 allocs/op
PASS
ok  	repro/internal/blocktree	9.1s
pkg: repro/internal/forkchoice
BenchmarkHead/steady-1000-2         	     100	        25.10 ns/op	       0 B/op	       0 allocs/op
BenchmarkHead/steady-1000000-2      	     100	        31.40 ns/op	       0 B/op	       0 allocs/op
BenchmarkHeadDeepChain/depth-256-2  	    2000	      2700 ns/op	       0 B/op	       0 allocs/op
BenchmarkHeadDeepChain/depth-4096-2 	    2000	      2900 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/forkchoice	1.2s
pkg: repro/internal/sim
BenchmarkSimLongHorizon/depth-100-2 	       5	    745064 ns/op	      1343 epochs/sec	   13465 B/op	      98 allocs/op
BenchmarkSimLongHorizon/depth-4000-2	       5	    653315 ns/op	      1532 epochs/sec	   16844 B/op	      99 allocs/op
PASS
ok  	repro/internal/sim	3.3s
pkg: repro/internal/engine
BenchmarkPartitionCell-2            	      20	   1402106 ns/op	         1.000 held-msgs/cell	       929.0 tree-nodes/cell	  426388 B/op	    1759 allocs/op
BenchmarkSweepWarmStart/cold-2      	       1	 700000000 ns/op	        42.50 cells/sec	212000000 B/op	  175000 allocs/op
BenchmarkSweepWarmStart/warm-2      	       1	 130000000 ns/op	       221.0 cells/sec	 7100000 B/op	    8500 allocs/op
PASS
ok  	repro/internal/engine	1.0s
pkg: repro/internal/engine
BenchmarkSweepWarmStartForks/cold-2 	       3	 200000000 ns/op	        40.00 cells/sec	60120000 B/op	   61040 allocs/op
BenchmarkSweepWarmStartForks/warm-2 	       3	 150000000 ns/op	        53.30 cells/sec	51590000 B/op	   38000 allocs/op
PASS
ok  	repro/internal/engine	1.6s
pkg: repro/internal/network
BenchmarkNetworkSlot-2              	  100000	       234.8 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/network	0.1s
pkg: repro/internal/server
BenchmarkSweepThroughCoordinator/direct-2 	      10	   6300000 ns/op	      4750 cells/sec	 2200000 B/op	   12300 allocs/op
BenchmarkSweepThroughCoordinator/hop-2    	      10	   8100000 ns/op	      3690 cells/sec	 2500000 B/op	   16900 allocs/op
PASS
`

func f(v float64) *float64 { return &v }

func verdicts(t *testing.T, gates []gate, output string) (int, string) {
	t.Helper()
	var report strings.Builder
	_, failed := check(&report, gates, parse(output))
	return failed, report.String()
}

func TestCheckPassesAndFails(t *testing.T) {
	gates := []gate{
		{Bench: "BenchmarkHead/steady-.*", Metric: "allocs/op", Max: f(0)},
		{Bench: "BenchmarkHeadDeepChain/depth-4096", Over: "BenchmarkHeadDeepChain/depth-256", Metric: "ns/op", Max: f(1.5)},
		{Bench: "BenchmarkSimLongHorizon/depth-4000", Over: "BenchmarkSimLongHorizon/depth-100", Metric: "epochs/sec", Min: f(0.8)},
		{Bench: "BenchmarkSimLongHorizon/depth-100", Metric: "B/op", Max: f(16000)},
		{Bench: "BenchmarkPartitionCell", Metric: "B/op", Max: f(470000)},
		{Bench: "BenchmarkPartitionCell", Metric: "allocs/op", Max: f(2000)},
		{Bench: "BenchmarkPartitionCell", Metric: "held-msgs/cell", Max: f(8)},
		{Bench: "BenchmarkNetworkSlot", Metric: "allocs/op", Max: f(0)},
		{Bench: "BenchmarkTreeIndex/(has|indexof)-.*", Metric: "allocs/op", Max: f(0)},
		{Bench: "BenchmarkSweepWarmStart/warm", Over: "BenchmarkSweepWarmStart/cold", Metric: "cells/sec", Min: f(3)},
		{Bench: "BenchmarkSweepWarmStart/warm", Over: "BenchmarkSweepWarmStart/cold", Metric: "B/op", Max: f(0.1)},
		{Bench: "BenchmarkSweepWarmStartForks/warm", Over: "BenchmarkSweepWarmStartForks/cold", Metric: "cells/sec", Min: f(1.1)},
		{Bench: "BenchmarkSweepWarmStartForks/warm", Over: "BenchmarkSweepWarmStartForks/cold", Metric: "B/op", Max: f(0.87)},
		{Bench: "BenchmarkSweepThroughCoordinator/hop", Over: "BenchmarkSweepThroughCoordinator/direct", Metric: "cells/sec", Min: f(0.5)},
		{Bench: "BenchmarkSweepThroughCoordinator/hop", Over: "BenchmarkSweepThroughCoordinator/direct", Metric: "B/op", Max: f(3)},
	}
	if failed, report := verdicts(t, gates, canned); failed != 0 || strings.Count(report, "ok ") != len(gates) {
		t.Fatalf("%d gates failed on output that meets them all:\n%s", failed, report)
	}

	allocating := strings.Replace(canned, "0 B/op	       0 allocs/op\nBenchmarkHeadDeepChain/depth-256", "16 B/op	       1 allocs/op\nBenchmarkHeadDeepChain/depth-256", 1)
	if failed, report := verdicts(t, gates, allocating); failed != 1 || !strings.Contains(report, "FAIL BenchmarkHead/steady-.* allocs/op = 0..1 over 2 lines") {
		t.Fatalf("one allocating steady-state line: %d failed\n%s", failed, report)
	}

	deep := strings.Replace(canned, "2900 ns/op", "4100 ns/op", 1)
	if failed, report := verdicts(t, gates, deep); failed != 1 || !strings.Contains(report, "= 1.519 (max 1.5)") {
		t.Fatalf("depth-4096 at 1.52x depth-256: %d failed\n%s", failed, report)
	}

	slowWarm := strings.Replace(canned, "221.0 cells/sec", "120.0 cells/sec", 1)
	if failed, report := verdicts(t, gates, slowWarm); failed != 1 || !strings.Contains(report, "= 2.824 (min 3)") {
		t.Fatalf("warm at 2.8x cold: %d failed\n%s", failed, report)
	}

	// The hop as it read before the coordinator shipped prefix groups: every
	// cell its own cold request.
	cellByCell := strings.NewReplacer("3690 cells/sec", "274.0 cells/sec", " 2500000 B/op", "76800000 B/op").Replace(canned)
	if failed, report := verdicts(t, gates, cellByCell); failed != 2 || !strings.Contains(report, "= 0.058 (min 0.5)") || !strings.Contains(report, "= 34.909 (max 3)") {
		t.Fatalf("a hop that dispatches cell by cell: %d failed\n%s", failed, report)
	}

	// A fork path that re-simulated each fork's prefix from genesis: warm
	// no faster than cold, and allocating like it.
	genesisForks := strings.NewReplacer("53.30 cells/sec", "39.40 cells/sec", "51590000 B/op", "59500000 B/op").Replace(canned)
	if failed, report := verdicts(t, gates, genesisForks); failed != 2 || !strings.Contains(report, "= 0.985 (min 1.1)") || !strings.Contains(report, "= 0.990 (max 0.87)") {
		t.Fatalf("forks re-simulated from genesis: %d failed\n%s", failed, report)
	}

	// A fork path that copied the spine's state twice per fork: seven more
	// 2.6 MB copies.
	secondCopy := strings.Replace(canned, "51590000 B/op", "69790000 B/op", 1)
	if failed, report := verdicts(t, gates, secondCopy); failed != 1 || !strings.Contains(report, "= 1.161 (max 0.87)") {
		t.Fatalf("a second copy per fork: %d failed\n%s", failed, report)
	}

	// A leak epoch as it read with a fresh inbox list per slot and a heap
	// buffer per hashed root (19 kB), and before duty lists were reused and
	// compaction kept the tree's storage (166 kB).
	for _, size := range []string{"18956", "165529"} {
		garbagePerSlot := strings.Replace(canned, "   13465 B/op", fmt.Sprintf("%8s B/op", size), 1)
		want := "FAIL BenchmarkSimLongHorizon/depth-100 B/op = " + size + ".." + size + " over 1 lines (max 16000)"
		if failed, report := verdicts(t, gates, garbagePerSlot); failed != 1 || !strings.Contains(report, want) {
			t.Fatalf("a leak epoch allocating %s B: %d failed\n%s", size, failed, report)
		}
	}

	// A partition cell as it read with fresh inbox lists, heap hash buffers
	// and the other side's traffic held for a heal at slot 2^30 (585 kB,
	// 4,680 allocations, 1,248 messages in flight at the end), and while each
	// tree's node array and root map regrew by doubling (1.09 MB).
	heldTraffic := strings.NewReplacer("         1.000 held-msgs/cell", "      1248 held-msgs/cell",
		"  426388 B/op	    1759 allocs/op", "  585151 B/op	    4680 allocs/op").Replace(canned)
	if failed, report := verdicts(t, gates, heldTraffic); failed != 3 ||
		!strings.Contains(report, "FAIL BenchmarkPartitionCell B/op = 585151..585151 over 1 lines (max 470000)") ||
		!strings.Contains(report, "FAIL BenchmarkPartitionCell allocs/op = 4680..4680 over 1 lines (max 2000)") ||
		!strings.Contains(report, "FAIL BenchmarkPartitionCell held-msgs/cell = 1248..1248 over 1 lines (max 8)") {
		t.Fatalf("a partition cell holding the other side's traffic: %d failed\n%s", failed, report)
	}
	regrowingTrees := strings.Replace(canned, "  426388 B/op", " 1086235 B/op", 1)
	if failed, report := verdicts(t, gates, regrowingTrees); failed != 1 || !strings.Contains(report, "FAIL BenchmarkPartitionCell B/op = 1.086235e+06..1.086235e+06 over 1 lines (max 470000)") {
		t.Fatalf("a partition cell allocating 1.09 MB: %d failed\n%s", failed, report)
	}

	// A network slot that starts every delivery slot's list afresh.
	freshLists := strings.Replace(canned, "234.8 ns/op	       0 B/op	       0 allocs/op", "314.4 ns/op	      50 B/op	       4 allocs/op", 1)
	if failed, report := verdicts(t, gates, freshLists); failed != 1 || !strings.Contains(report, "FAIL BenchmarkNetworkSlot allocs/op = 4..4 over 1 lines (max 0)") {
		t.Fatalf("a network slot allocating fresh lists: %d failed\n%s", failed, report)
	}

	// A miss that allocates (an error value built for the caller who only
	// asked Has).
	allocatingMiss := strings.Replace(canned, "8.324 ns/op	       0 B/op	       0 allocs/op", "48.32 ns/op	      64 B/op	       1 allocs/op", 1)
	if failed, report := verdicts(t, gates, allocatingMiss); failed != 1 || !strings.Contains(report, "FAIL BenchmarkTreeIndex/(has|indexof)-.* allocs/op = 0..1 over 4 lines") {
		t.Fatalf("an allocating index miss: %d failed\n%s", failed, report)
	}

	snapshotPerStop := strings.Replace(canned, " 7100000 B/op", "71900000 B/op", 1)
	if failed, report := verdicts(t, gates, snapshotPerStop); failed != 1 || !strings.Contains(report, "= 0.339 (max 0.1)") {
		t.Fatalf("warm allocating a third of cold: %d failed\n%s", failed, report)
	}
}

// TestRecordIsByteStable: two records of the same output on the same host
// are the same bytes, and a record carries every parsed line (iterations
// and every unit) and every gate with its bound, values and verdict.
func TestRecordIsByteStable(t *testing.T) {
	gates, err := loadGates("gates.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		results := parse(canned)
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", i))
		verdicts, _ := check(io.Discard, gates, results)
		if err := writeRecord(path, thisHost(), results, verdicts); err != nil {
			t.Fatal(err)
		}
		if files[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("two records of the same output differ:\n%s\n%s", files[0], files[1])
	}
	var rec struct {
		Host       host
		Benchmarks []result
		Gates      []verdict
	}
	if err := json.Unmarshal(files[0], &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Host.NProc < 1 || rec.Host.Go == "" || rec.Host.CPU == "" || rec.Host.Commit == "" {
		t.Errorf("host facts missing: %+v", rec.Host)
	}
	if want := strings.Count(canned, "\nBenchmark"); len(rec.Benchmarks) != want {
		t.Errorf("recorded %d benchmark lines, canned has %d", len(rec.Benchmarks), want)
	}
	if b := rec.Benchmarks[len(rec.Benchmarks)-1]; b.Name != "BenchmarkSweepThroughCoordinator/hop-2" || b.N != 10 || b.Metrics["B/op"] != 2500000 || len(b.Metrics) != 4 {
		t.Errorf("last line recorded as %+v", b)
	}
	if len(rec.Gates) != len(gates) {
		t.Fatalf("recorded %d gates, the file has %d", len(rec.Gates), len(gates))
	}
	for i, g := range rec.Gates {
		if g.Bench != gates[i].Bench || g.Metric != gates[i].Metric || g.Why != gates[i].Why {
			t.Errorf("gate %d recorded as %+v", i, g.gate)
		}
	}
	if g := rec.Gates[0]; g.Bench != "BenchmarkHead/steady-.*" || !g.OK || len(g.Values) != 2 || *g.Max != 0 {
		t.Errorf("first gate recorded as %+v (values %v)", g.gate, g.Values)
	}
}

// TestCheckFailsOnMissingMetric: a gate never passes by finding nothing to
// judge — a benchmark that was renamed, a run without -benchmem, a ratio
// with one side absent.
func TestCheckFailsOnMissingMetric(t *testing.T) {
	for name, tc := range map[string]struct {
		gate   gate
		output string
		want   string
	}{
		"renamed benchmark": {
			gate{Bench: "BenchmarkEpochTransition", Metric: "allocs/op", Max: f(0)}, canned,
			"no BenchmarkEpochTransition line reports allocs/op",
		},
		"no -benchmem": {
			gate{Bench: "BenchmarkHead/steady-.*", Metric: "allocs/op", Max: f(0)},
			strings.ReplaceAll(canned, "	       0 B/op	       0 allocs/op", ""),
			"no BenchmarkHead/steady-.* line reports allocs/op",
		},
		"a B/op gate without -benchmem": {
			gate{Bench: "BenchmarkSimLongHorizon/depth-100", Metric: "B/op", Max: f(16000)},
			strings.Replace(canned, "	   13465 B/op	      98 allocs/op", "", 1),
			"no BenchmarkSimLongHorizon/depth-100 line reports B/op",
		},
		"baseline absent": {
			gate{Bench: "BenchmarkSweepWarmStart/warm", Over: "BenchmarkSweepWarmStart/cold", Metric: "cells/sec", Min: f(3)},
			strings.Replace(canned, "BenchmarkSweepWarmStart/cold", "BenchmarkSweepWarmStart/chilly", 1),
			"no BenchmarkSweepWarmStart/cold line reports a nonzero cells/sec",
		},
		"empty output": {
			gate{Bench: "BenchmarkHead/steady-.*", Metric: "allocs/op", Max: f(0)}, "",
			"no BenchmarkHead/steady-.* line reports allocs/op",
		},
	} {
		failed, report := verdicts(t, []gate{tc.gate}, tc.output)
		if failed != 1 || !strings.Contains(report, tc.want) {
			t.Errorf("%s: %d failed, report %q; want one failure saying %q", name, failed, report, tc.want)
		}
	}
}

// TestNamesMatchWholeWithOrWithoutProcs: on one CPU go test appends no
// -GOMAXPROCS suffix, and a name's own trailing number must not be taken
// for one — depth-4096 is not depth-409, steady-1000 not steady-1000000.
func TestNamesMatchWholeWithOrWithoutProcs(t *testing.T) {
	oneCPU := strings.NewReplacer("-2  ", "  ", "-2 ", " ").Replace(canned)
	for _, output := range []string{canned, oneCPU} {
		results := parse(output)
		if got := values(results, "BenchmarkHead/steady-1000", "ns/op"); len(got) != 1 || got[0] != 25.10 {
			t.Errorf("steady-1000 ns/op = %v, want [25.1]", got)
		}
		if got := values(results, "BenchmarkHeadDeepChain/depth-.*", "allocs/op"); len(got) != 2 {
			t.Errorf("depth-.* matched %d lines, want 2", len(got))
		}
		if got := values(results, "BenchmarkHeadDeepChain/depth-409", "ns/op"); len(got) != 0 {
			t.Errorf("depth-409 matched %v", got)
		}
	}
	if got := median([]float64{1, 2, 3}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

// TestGatesFileLoads: the checked-in file is well-formed and says why each
// floor exists; a file that is not a gates file does not load.
func TestGatesFileLoads(t *testing.T) {
	gates, err := loadGates("gates.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(gates) == 0 {
		t.Fatal("gates.json declares no gates")
	}
	for _, g := range gates {
		if g.Why == "" {
			t.Errorf("gate on %s does not say why", g.Bench)
		}
	}
	if _, err := loadGates("main.go"); err == nil {
		t.Error("a file that is not a gates file loaded")
	}
}

// TestTrendTabulatesRecords: two PRs' records become one table, a column per
// PR in numeric order whatever order the files come in, a row per gate in
// the newer record's order, an empty cell where the older record lacks a
// gate, and FAIL where a gate failed.
func TestTrendTabulatesRecords(t *testing.T) {
	gates := []gate{
		{Bench: "BenchmarkPartitionCell", Metric: "B/op", Max: f(640000), Why: "bytes"},
		{Bench: "BenchmarkTreeIndex/(has|indexof)-.*", Metric: "allocs/op", Max: f(0), Why: "index"},
		{Bench: "BenchmarkSweepWarmStartForks/warm", Over: "BenchmarkSweepWarmStartForks/cold", Metric: "B/op", Max: f(0.87), Why: "forks"},
	}
	dir := t.TempDir()
	write := func(pr int, gates []gate, output string) string {
		t.Helper()
		results := parse(output)
		verdicts, _ := check(io.Discard, gates, results)
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", pr))
		if err := writeRecord(path, host{}, results, verdicts); err != nil {
			t.Fatal(err)
		}
		return path
	}
	newer := append([]gate{{Bench: "BenchmarkNetworkSlot", Metric: "allocs/op", Max: f(0), Why: "slot"}}, gates...)
	older := strings.NewReplacer("  426388 B/op", "  585151 B/op", "51590000 B/op", "53000000 B/op").Replace(canned)
	paths := []string{
		write(27, newer, canned),
		write(9, gates, strings.Replace(older, "8.324 ns/op	       0 B/op	       0 allocs/op", "48.32 ns/op	      64 B/op	       1 allocs/op", 1)),
	}
	var out strings.Builder
	if err := trend(&out, paths); err != nil {
		t.Fatal(err)
	}
	want := `| gate | 9 | 27 |
|---|---|---|
| BenchmarkNetworkSlot allocs/op |  | 0 |
| BenchmarkPartitionCell B/op | 585151 | 426388 |
| BenchmarkTreeIndex/(has\|indexof)-.* allocs/op | 0..1 FAIL | 0 |
| BenchmarkSweepWarmStartForks/warm / BenchmarkSweepWarmStartForks/cold B/op | 0.882 FAIL | 0.858 |
`
	if out.String() != want {
		t.Errorf("trend table:\n%s\nwant:\n%s", out.String(), want)
	}
	if err := trend(io.Discard, []string{filepath.Join(dir, "bench.out")}); err == nil {
		t.Error("a file not named BENCH_<pr>.json was tabulated")
	}
}
