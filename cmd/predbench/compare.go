package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/stats"
)

// -compare A.json B.json holds B (the change) to A (the parent): for every
// pairing of workload and end-to-end metric, B's value may be worse than
// A's by at most the metric's bound. Where either side's own spread
// between rounds is wider than the bound, the pair is reported unresolved
// rather than unchanged: the instrument could not have seen a regression
// of that size.

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spread is the distance between a metric's quartiles over its rounds, as
// a share of its median; 0 for metrics reported once per run.
func spread(s sample) float64 {
	if len(s.Samples) < 2 || s.Value == 0 {
		return 0
	}
	return (stats.Quantile(s.Samples, 0.75) - stats.Quantile(s.Samples, 0.25)) / math.Abs(s.Value)
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative: better).
func worsening(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (int, error) {
	a, err := readResult(pathA)
	if err != nil {
		return 2, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return 2, err
	}
	violations, unresolved := 0, 0
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name].EndToEnd, b.Workloads[wl.Name].EndToEnd
		if ra == nil || rb == nil {
			return 2, fmt.Errorf("workload %s is missing from one of the files", wl.Name)
		}
		if rb.Failed > ra.Failed {
			violations++
			fmt.Fprintf(w, "%-16s %-20s %14d %14d %9s %7s  VIOLATION\n", wl.Name, "failed", ra.Failed, rb.Failed, "", "0")
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			worse := worsening(m, va.Value, vb.Value)
			verdict := "ok"
			switch {
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				verdict = fmt.Sprintf("unresolved (round spread %.1f%% / %.1f%%)", 100*spread(va), 100*spread(vb))
				unresolved++
			case worse > m.Bound:
				verdict = "VIOLATION"
				violations++
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				wl.Name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "%d violations, %d unresolved\n", violations, unresolved)
	if violations > 0 {
		return 1, nil
	}
	return 0, nil
}
