package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/stats"
)

// The traced pass produces the per-layer metrics. End-to-end metrics never
// come from it: it alternates an untraced and a traced round, so the two
// can be held to the same answers and their latency ratio is the tracing
// overhead, then runs the probes on the workload's own inputs.

// harvested maps the span names the engine emits to the per-layer metric
// each feeds (per-op sums, median over ops).
var harvested = map[string]string{
	"op:scan":          "engine.scan_ms",
	"op:exact-eval":    "engine.exact_eval_ms",
	"op:group-resolve": "engine.group_resolve_ms",
	"op:sample":        "engine.sample_ms",
	"op:solve":         "engine.solve_ms",
	"op:prob-eval":     "engine.prob_eval_ms",
	"op:merge":         "engine.merge_ms",
	"op:conj-sample":   "engine.conj_ms",
	"op:conj-solve":    "engine.conj_ms",
	"op:conj-exec":     "engine.conj_ms",
	"op:conj-waves":    "engine.conj_ms",
	"materialize":      "engine.materialize_ms",
}

// perStatement spans are reported per statement, in microseconds.
var perStatement = map[string]string{
	"bind": "engine.bind_us",
	"plan": "engine.plan_us",
}

func tracedPass(ctx context.Context, cfg runConfig, w workload, res *runResult, note func(*roundAgg), budget time.Duration, finish func() closeReport) error {
	rec := newRecorder()
	var plain, traced []*roundAgg
	opBase := 1
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < budget/2 {
		u, err := runRound(ctx, w, nil, 0)
		if err != nil {
			return err
		}
		t, err := runRound(ctx, w, rec, opBase)
		if err != nil {
			return err
		}
		opBase += len(t.ops)
		note(u)
		note(t)
		us, ts := u.signature(), t.signature()
		if us[3] != ts[3] || (w.replays() && us != ts) {
			res.Failed++
			res.Failures = append(res.Failures,
				fmt.Sprintf("traced round answered differently from the untraced round: %v vs %v", ts, us))
		}
		plain, traced = append(plain, u), append(traced, t)
	}

	m := map[string]float64{}
	// Harvest: per-op sums of the engine's spans.
	sums, nOps := perOpSums(rec.snapshot())
	byMetric := map[string][]float64{}
	for name, metric := range harvested {
		if byMetric[metric] == nil {
			byMetric[metric] = make([]float64, nOps)
		}
		for i, v := range sums[name] {
			byMetric[metric][i] += v
		}
	}
	for metric, vals := range byMetric {
		m[metric] = median(vals)
	}
	for name, metric := range perStatement {
		var vals []float64
		for i, v := range sums[name] {
			if n := sums[stmtCount][i]; n > 0 {
				vals = append(vals, v*1e3/n)
			}
		}
		m[metric] = median(vals)
	}

	// Statistics of the ops themselves.
	var all totals
	var pooled, plainP50, tracedP50, coverage, untraced []float64
	layerOps := map[string][]float64{}
	for _, r := range plain {
		all.add(r)
		pooled = append(pooled, r.latenciesMS()...)
		plainP50 = append(plainP50, median(r.latenciesMS()))
		for _, o := range r.ops {
			for k, v := range o.layer {
				layerOps[k] = append(layerOps[k], v)
			}
		}
	}
	for _, r := range traced {
		tracedP50 = append(tracedP50, median(r.latenciesMS()))
		for _, o := range r.ops {
			coverage = append(coverage, o.coverage)
			untraced = append(untraced, o.untraced)
		}
	}
	for k, vals := range layerOps {
		m[k] = median(vals)
	}
	ops := float64(all.ops)
	m["engine.udf_calls_per_op"] = float64(all.evals) / ops
	m["engine.cache_hit_ratio"] = ratio(float64(all.hits), float64(all.hits+all.misses))
	m["engine.trace_coverage_ratio"] = median(coverage)
	m["engine.untraced_ms"] = median(untraced)
	m["core.sampled_per_op"] = float64(all.sampled) / ops
	m["core.precision_mean"] = ratio(all.precSum, float64(all.approx))
	m["core.recall_mean"] = ratio(all.recSum, float64(all.approx))
	m["core.precision_min"] = all.precMin
	m["core.recall_min"] = all.recMin
	m["core.guarantee_met_ratio"] = all.guarantee()
	m["core.rows_out_per_call"] = ratio(float64(all.rowsOut), float64(all.evals))
	m["obs.trace_overhead_ratio"] = ratio(median(tracedP50), median(plainP50))
	p90 := stats.Quantile(pooled, 0.9)
	if strings.HasPrefix(cfg.workload, "serve_") {
		m["predsqld.op_p90_ms"] = p90
	} else {
		m["predeval.op_p90_ms"] = p90
	}

	probes, err := runProbes(ctx, w.probe())
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	for k, v := range probes {
		m[k] = v
	}
	rep := finish()
	for k, v := range rep.layer {
		m[k] = v
	}
	for k, v := range m {
		res.Metrics[k] = sample{Value: v}
	}
	checkGuarantee(w, all, res)

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	return rec.write(tracePath(cfg.outDir, cfg.workload), cfg.workload, cfg.seed)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// applicable reports whether a per-layer metric's layer is on a workload's
// path at all. The contract wants every declared metric from every
// workload, so the others are reported as 0 — by this rule only, which
// keeps a metric that silently went missing a hard error.
func applicable(workload, metric string) bool {
	served := strings.HasPrefix(workload, "serve_")
	switch {
	case strings.HasPrefix(metric, "predsqld."), metric == "obs.exposition_ms":
		return served
	case strings.HasPrefix(metric, "predeval."):
		return !served
	case strings.HasPrefix(metric, "catalog."):
		return workload == "catalog_restart"
	}
	return true
}
