package main

import (
	"fmt"
	"io"
	"sort"
)

// Verdicts of one workload x metric comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictSame       = "same"
	verdictDiffers    = "differs"
)

// spread is the interquartile range as a share of the median.
func spread(v samples) float64 {
	s := v.sorted()
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / med
}

// judge compares a candidate's runs with the base's for one metric. The
// candidate is worse when its median is worse than the base's by more than
// the bound. When the runs of either side spread wider than the bound, that
// reading only stands if the two sides do not overlap; otherwise the metric
// is unresolved, not unchanged.
func judge(def metricDef, base, cand samples) string {
	b, c := base.sorted(), cand.sorted()
	if def.Exact {
		if b[0] == b[len(b)-1] && c[0] == c[len(c)-1] && b[0] == c[0] {
			return verdictSame
		}
		return verdictDiffers
	}
	mb, mc := quantile(b, 0.5), quantile(c, 0.5)
	lower := def.Better == "lower"
	var worseBy float64
	switch {
	case mb == 0 && mc == 0:
		return verdictOK
	case mb == 0:
		// Only a lower-is-better metric rests at zero (failed_share).
		return verdictWorse
	case lower:
		worseBy = (mc - mb) / mb
	default:
		worseBy = (mb - mc) / mb
	}
	if spread(base) > def.Bound || spread(cand) > def.Bound {
		candAllBetter, candAllWorse := c[len(c)-1] < b[0], c[0] > b[len(b)-1]
		if !lower {
			candAllBetter, candAllWorse = candAllWorse, candAllBetter
		}
		switch {
		case candAllBetter:
			return verdictOK
		case !candAllWorse:
			return verdictUnresolved
		}
	}
	if worseBy > def.Bound {
		return verdictWorse
	}
	return verdictOK
}

// compareFiles prints, per workload x metric, the two medians, their ratio
// (candidate over base), the bound and the verdict; it returns 1 when any
// metric is worse.
func compareFiles(stdout, stderr io.Writer, basePath, candPath string) int {
	var sides [2]resultFile
	for i, path := range []string{basePath, candPath} {
		var err error
		if sides[i], err = readResults(path); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	return compareRuns(stdout, sides[0].Runs, sides[1].Runs)
}

func compareRuns(w io.Writer, base, cand []runRecord) int {
	// values[side][workload][traced][metric]
	collect := func(runs []runRecord) map[string]map[bool]map[string]samples {
		out := map[string]map[bool]map[string]samples{}
		for _, r := range runs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[bool]map[string]samples{false: {}, true: {}}
			}
			for name, m := range r.Metrics {
				out[r.Workload][r.Traced][name] = append(out[r.Workload][r.Traced][name], m.Value)
			}
		}
		return out
	}
	b, c := collect(base), collect(cand)
	counts := map[string]int{}
	fmt.Fprintf(w, "%-12s %-28s %-6s %14s %14s %9s %7s  %s\n", "workload", "metric", "unit", "base median", "cand median", "cand/base", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, def := range defs {
				if !def.reportedBy(wl) {
					continue
				}
				bv, cv := b[wl][traced][def.Name], c[wl][traced][def.Name]
				if len(bv) == 0 || len(cv) == 0 {
					continue
				}
				// Per-layer timings attribute a change; they are not judged.
				verdict := "info"
				if !traced || def.Exact {
					verdict = judge(def, bv, cv)
					counts[verdict]++
				}
				mb, mc := bv.median(), cv.median()
				ratio := "-"
				if mb != 0 {
					ratio = fmt.Sprintf("%.4f", mc/mb)
				}
				bound := fmt.Sprintf("%.0f%%", 100*def.Bound)
				if def.Exact {
					bound = "exact"
				}
				fmt.Fprintf(w, "%-12s %-28s %-6s %14.6g %14.6g %9s %7s  %s (n %d vs %d)\n", wl, def.Name, def.Unit, mb, mc, ratio, bound, verdict, len(bv), len(cv))
			}
		}
	}
	verdicts := make([]string, 0, len(counts))
	for v := range counts {
		verdicts = append(verdicts, v)
	}
	sort.Strings(verdicts)
	for _, v := range verdicts {
		fmt.Fprintf(w, "%d %s  ", counts[v], v)
	}
	fmt.Fprintln(w)
	if counts[verdictWorse] > 0 {
		return 1
	}
	return 0
}
