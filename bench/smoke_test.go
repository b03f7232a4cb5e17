package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func toyConfig(t *testing.T, workload string, traced bool) config {
	t.Helper()
	cfg := config{
		Workload: workload, Seed: goldenSeed, Seconds: refSeconds, Scale: toyScale,
		Traced: traced, TmpDir: t.TempDir(), Log: io.Discard,
	}
	if traced {
		cfg.TraceFile = filepath.Join(t.TempDir(), "trace.json")
	}
	return cfg
}

// isTiming reports whether a unit measures time.
func isTiming(unit string) bool {
	switch unit {
	case "ns", "us", "ms", "s":
		return true
	}
	return false
}

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric tables
// in metrics.go in step: same workloads, same names, units, directions and
// bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloadNames[i])
		}
	}
	gated := driverMetrics(false)
	if len(b.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness gates %d", len(b.EndToEnd), len(gated))
	}
	for i, m := range b.EndToEnd {
		d := gated[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at toy scale, untraced
// and traced: no op may fail, every metric BENCHMARK.json names must come
// out (the end-to-end ones nonzero), and the span tree must be well-formed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, workload := range workloadNames {
		t.Run(workload, func(t *testing.T) {
			rec, _, err := runWorkload(toyConfig(t, workload, false))
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("untraced: correct=%t attempted=%d failed=%d: %v", rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
			}
			for _, m := range b.EndToEnd {
				if got, ok := rec.Metrics[m.Name]; !ok || got.Value <= 0 || got.Unit != m.Unit {
					t.Errorf("untraced: end-to-end metric %s = %+v (present %t), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, d := range endToEnd {
				if _, ok := rec.Metrics[d.Name]; d.reportedBy(workload) && !ok {
					t.Errorf("untraced: %s reports %s, but the run did not emit it", workload, d.Name)
				}
			}

			rec, tr, err := runWorkload(toyConfig(t, workload, true))
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 {
				t.Fatalf("traced: correct=%t failed=%d: %v", rec.Correct, rec.Failed, rec.Problems)
			}
			for _, m := range b.PerLayer {
				if _, ok := rec.Metrics[m.Name]; !ok {
					t.Errorf("traced: per-layer metric %s missing", m.Name)
				}
			}
			// A timing this workload's layers own must have been measured.
			// (The toy tree never reaches the compaction watermark.)
			for _, d := range perLayer {
				if d.reportedBy(workload) && d.Workloads != nil && isTiming(d.Unit) && d.Name != "blocktree.compact_ms" &&
					d.Name != "gasperleak.run_overhead_ms" && d.Name != "server.http_overhead_us" && rec.Metrics[d.Name].Value <= 0 {
					t.Errorf("traced: %s owns %s but measured %v", workload, d.Name, rec.Metrics[d.Name].Value)
				}
			}
			if err := tr.wellFormed(); err != nil {
				t.Errorf("span tree: %v", err)
			}
			if len(tr.layerTable()) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestCorruptGoldenFails records toy digests, checks that the same run then
// passes against them, and that one flipped digest makes it fail.
func TestCorruptGoldenFails(t *testing.T) {
	dir := t.TempDir()
	cfg := toyConfig(t, wlGridCold, false)
	cfg.GoldenDir, cfg.UpdateGolden = dir, true
	if _, _, err := runWorkload(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.UpdateGolden = false
	rec, _, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Fatalf("run fails against the digests it just recorded: %v", rec.Problems)
	}

	table, err := loadGolden(dir, toyScale.Name)
	if err != nil || len(table) == 0 {
		t.Fatalf("golden table: %d entries, err %v", len(table), err)
	}
	for key := range table {
		table[key] = strings.Repeat("0", 32)
		break
	}
	data, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, goldenFile(toyScale.Name)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, _, err = runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Correct || rec.Failed == 0 {
		t.Fatalf("run passed against a corrupted golden digest (failed = %d)", rec.Failed)
	}
}

// TestLastLineIsTheDriverContract drives the command line the way the
// driver does: the last line of stdout is one JSON object with exactly the
// four keys, carrying exactly the metrics BENCHMARK.json lists for the kind
// of run; bad invocations exit non-zero without a result.
func TestLastLineIsTheDriverContract(t *testing.T) {
	b := readBenchmarkJSON(t)
	t.Chdir(t.TempDir()) // the command keeps its scratch under the working directory
	for _, traced := range []string{"0", "1"} {
		var stdout bytes.Buffer
		args := []string{"--workload", wlServeMix, "--seed", "7", "--seconds", "20", "--trace", traced, "-scale", "toy"}
		if code := realMain(args, &stdout, io.Discard); code != 0 {
			t.Fatalf("--trace %s: exit %d\n%s", traced, code, stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("--trace %s: last line is not JSON: %v", traced, err)
		}
		if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
			t.Errorf("--trace %s: last line has keys %v, want exactly correct, attempted, failed, metrics", traced, last)
		}
		var metrics map[string]measure
		if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		var want []string
		if traced == "0" {
			for _, m := range b.EndToEnd {
				want = append(want, m.Name)
			}
		} else {
			for _, m := range b.PerLayer {
				want = append(want, m.Name)
			}
		}
		if len(metrics) != len(want) {
			t.Errorf("--trace %s: %d metrics on the last line, BENCHMARK.json lists %d", traced, len(metrics), len(want))
		}
		for _, name := range want {
			if _, ok := metrics[name]; !ok {
				t.Errorf("--trace %s: last line lacks %s", traced, name)
			}
		}
	}
	if code := realMain([]string{"-workload", "no-such"}, io.Discard, io.Discard); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if code := realMain([]string{"-compare", "only-one.json"}, io.Discard, io.Discard); code == 0 {
		t.Error("-compare with one file exited 0")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x_per_s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "n", Exact: true}
	for _, tc := range []struct {
		name       string
		def        metricDef
		base, cand samples
		want       string
	}{
		{"steady and equal", lower, samples{100, 101, 99}, samples{100, 102, 98}, verdictOK},
		{"steady and slower", lower, samples{100, 101, 99}, samples{120, 121, 119}, verdictWorse},
		{"steady and faster", lower, samples{100, 101, 99}, samples{80, 81, 79}, verdictOK},
		{"noisy and overlapping", lower, samples{100, 150, 60, 90}, samples{115, 160, 70, 120}, verdictUnresolved},
		{"noisy but every run better", lower, samples{100, 150, 200, 120}, samples{50, 40, 60, 45}, verdictOK},
		{"noisy and every run worse", lower, samples{100, 150, 200, 120}, samples{400, 300, 500, 350}, verdictWorse},
		{"throughput dropped", higher, samples{70, 71, 69}, samples{60, 61, 59}, verdictWorse},
		{"throughput rose", higher, samples{70, 71, 69}, samples{90, 91, 89}, verdictOK},
		{"failures appeared", metricDef{Better: "lower"}, samples{0, 0}, samples{0.1, 0}, verdictWorse},
		{"count repeats", exact, samples{101, 101}, samples{101}, verdictSame},
		{"count moved", exact, samples{101, 101}, samples{102}, verdictDiffers},
	} {
		if got := judge(tc.def, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
