// Micro-benchmarks for the optimizer paths cmd/predbench (the benchmark of
// record, BENCHMARK.json) has no layer metric for and no test times. What
// predbench or a test already covers is not repeated here: the paper's
// tables and figures run in experiments.TestAllExperimentsRun, and the SQL
// front end, the convex planners, the executor, pool speedup, streaming
// first-batch latency, catalog warm restart, tracing overhead and dataset
// generation are predbench layer metrics (see DESIGN.md, "Benchmarks").
package predeval_test

import (
	"context"
	"testing"

	predeval "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// BenchmarkIntelSamplePipeline measures one full Intel-Sample run
// (sample → estimate → plan → execute) on the LC stand-in through the
// facade, reporting the UDF calls it needed.
func BenchmarkIntelSamplePipeline(b *testing.B) {
	d, err := dataset.Generate(dataset.LendingClub.Scaled(0.1), 1)
	if err != nil {
		b.Fatal(err)
	}
	db := predeval.Open(2)
	db.SetUDFCache(false)
	if err := db.Engine().RegisterTable(d.Table); err != nil {
		b.Fatal(err)
	}
	if err := db.RegisterUDF("good_credit", func(v any) bool { return d.Labels[v.(int64)] }, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	totalEvals := 0.0
	for i := 0; i < b.N; i++ {
		rows, err := db.QueryContext(context.Background(), `SELECT id FROM lc WHERE good_credit(id) = 1
			WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8 GROUP ON grade`)
		if err != nil {
			b.Fatal(err)
		}
		totalEvals += float64(rows.Stats().Evaluations)
	}
	b.ReportMetric(totalEvals/float64(b.N), "udfcalls/op")
}

// BenchmarkBiGreedyPlanner measures the O(|A| log |A|) LP solver on a
// 64-group instance.
func BenchmarkBiGreedyPlanner(b *testing.B) {
	rng := stats.NewRNG(3)
	groups := make([]core.GroupInfo, 64)
	for i := range groups {
		groups[i] = core.GroupInfo{Size: 500 + rng.IntN(2000), Selectivity: rng.Float64()}
	}
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanPerfectSelectivities(groups, cons, core.DefaultCost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfectInfoBranchBound measures the exact NP-hard solver on a
// 20-group instance.
func BenchmarkPerfectInfoBranchBound(b *testing.B) {
	rng := stats.NewRNG(11)
	groups := make([]experiments.PerfectInfoGroup, 20)
	for i := range groups {
		groups[i] = experiments.PerfectInfoGroup{
			Key:     "g",
			Correct: rng.IntN(1000),
			Wrong:   rng.IntN(1000),
		}
	}
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SolvePerfectInformation(groups, cons, core.DefaultCost); err != nil {
			b.Fatal(err)
		}
	}
}
