package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// config is one run's instructions.
type config struct {
	Workload string
	Seed     int64
	Seconds  int
	Scale    scale
	// Traced selects the traced run (per-layer metrics); TraceFile is where
	// its Chrome trace goes ("" = nowhere).
	Traced    bool
	TraceFile string
	// GoldenDir overrides the embedded digest tables; UpdateGolden writes
	// the digests this run saw into it instead of checking them.
	GoldenDir    string
	UpdateGolden bool
	// TmpDir roots the stores and checkpoints the run writes.
	TmpDir string
	// Log receives the human-readable report.
	Log io.Writer
}

// runRecord is the outcome of one run: what the last stdout line is built
// from and what -out appends to a result file.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Scale     string             `json:"scale"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Polluted  bool               `json:"polluted,omitempty"`
	Metrics   map[string]measure `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`
}

// env is the state one workload run threads through its phases.
type env struct {
	cfg config
	ctx context.Context
	chk *checker
	tr  *tracer // nil on untraced runs
	tmp string
	out map[string]measure
	// timed brackets the timed section for cpu_user_s, alloc_mb and host.*.
	timedStart, timedEnd usage
}

func (e *env) set(name string, m measure) { e.out[name] = m }

func (e *env) value(name, unit string, v float64) { e.out[name] = measure{Value: v, Unit: unit} }

func (e *env) reps() int { return e.cfg.Scale.reps(e.cfg.Workload, e.cfg.Seconds) }

// mkdir makes a fresh directory under the run's scratch root.
func (e *env) mkdir(pattern string) (string, error) { return os.MkdirTemp(e.tmp, pattern) }

// usage is a reading of the process's cumulative resource counters.
type usage struct {
	user, sys float64
	minflt    int64
	maxrssKB  int64
	alloc     uint64
	gcCount   uint32
	gcPauseNs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		user: tv(ru.Utime), sys: tv(ru.Stime),
		minflt: ru.Minflt, maxrssKB: ru.Maxrss,
		alloc: ms.TotalAlloc, gcCount: ms.NumGC, gcPauseNs: ms.PauseTotalNs,
	}
}

// goVersionNumber reads go1.24.0 as 12400 (a development build as 0).
func goVersionNumber() float64 {
	var major, minor, patch int
	_, _ = fmt.Sscanf(runtime.Version(), "go%d.%d.%d", &major, &minor, &patch) // a short version leaves the rest zero
	return float64(major*10000 + minor*100 + patch)
}

var workloads = map[string]func(*env) error{
	wlLeakDeep:   runLeakDeep,
	wlGridCold:   runGridCold,
	wlReuseTiers: runReuseTiers,
	wlServeMix:   runServeMix,
}

// runWorkload executes one run and assembles its record. An error means the
// harness itself could not run (bad flags, no scratch space); a wrong or
// failed op is reported through the record.
func runWorkload(cfg config) (*runRecord, *tracer, error) {
	run, ok := workloads[cfg.Workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (have %s, all)", cfg.Workload, strings.Join(workloadNames, ", "))
	}
	if cfg.Seconds < 1 {
		return nil, nil, fmt.Errorf("-seconds = %d, want >= 1", cfg.Seconds)
	}
	// Golden digests exist for one seed (and, checked in, for the full
	// scale); identity across paths is checked on every seed.
	var golden map[string]string
	if cfg.Seed == goldenSeed && !cfg.UpdateGolden {
		var err error
		if golden, err = loadGolden(cfg.GoldenDir, cfg.Scale.Name); err != nil {
			return nil, nil, err
		}
	}
	if err := os.MkdirAll(cfg.TmpDir, 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(cfg.TmpDir, "run-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)

	e := &env{cfg: cfg, ctx: context.Background(), chk: newChecker(golden), tmp: tmp, out: map[string]measure{}}
	if cfg.Traced {
		e.tr = newTracer()
	}
	if err := run(e); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	e.chk.finish()

	d := e.timedEnd
	s := e.timedStart
	polluted := d.sys-s.sys > d.user-s.user
	if cfg.Traced {
		e.value("host.sys_s", "s", d.sys-s.sys)
		e.value("host.minflt", "count", float64(d.minflt-s.minflt))
		e.value("host.peak_rss_mb", "MB", float64(d.maxrssKB)/1024)
		e.value("host.gc_count", "count", float64(d.gcCount-s.gcCount))
		e.value("host.gc_pause_ms", "ms", float64(d.gcPauseNs-s.gcPauseNs)/1e6)
		e.value("host.nproc", "count", float64(runtime.NumCPU()))
		e.value("host.go_version", "count", goVersionNumber())
		// Every per-layer metric is present in every traced run; the ones
		// this workload's layers do not own read zero.
		for _, def := range perLayer {
			if _, ok := e.out[def.Name]; !ok {
				e.value(def.Name, def.Unit, 0)
			}
		}
	} else {
		e.value("cpu_user_s", "s", d.user-s.user)
		e.value("alloc_mb", "MB", float64(d.alloc-s.alloc)/1e6)
		share := 0.0
		if e.chk.attempted > 0 {
			share = float64(e.chk.failed) / float64(e.chk.attempted)
		}
		e.value("failed_share", "share", share)
	}

	if cfg.UpdateGolden && e.chk.failed == 0 {
		if err := saveGolden(cfg.GoldenDir, cfg.Scale.Name, e.chk.seen); err != nil {
			return nil, nil, err
		}
	}
	rec := &runRecord{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Scale: cfg.Scale.Name,
		Traced: cfg.Traced, Correct: e.chk.failed == 0,
		Attempted: e.chk.attempted, Failed: e.chk.failed,
		Polluted: polluted, Metrics: e.out, Problems: e.chk.problems,
	}
	if e.tr != nil && cfg.TraceFile != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.TraceFile), 0o755); err != nil {
			return nil, nil, err
		}
		if err := e.tr.writeChrome(cfg.TraceFile); err != nil {
			return nil, nil, err
		}
	}
	return rec, e.tr, nil
}

// repWall is rep_wall_s: one repetition with every phase at its median wall
// time. Summing medians instead of taking the median of sums keeps a single
// page-fault storm in one phase from deciding the whole repetition.
func repWall(phases ...samples) measure {
	total := 0.0
	for _, p := range phases {
		total += p.median()
	}
	return measure{Value: total, Unit: "s"}
}
