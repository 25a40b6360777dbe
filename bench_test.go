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

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// BenchmarkIntelSamplePipeline measures one full Intel-Sample run
// (sample → estimate → plan → execute) on the LC stand-in, reporting the
// UDF calls it needed.
func BenchmarkIntelSamplePipeline(b *testing.B) {
	d, err := dataset.Generate(dataset.LendingClub.Scaled(0.1), 1)
	if err != nil {
		b.Fatal(err)
	}
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	rng := stats.NewRNG(2)
	b.ResetTimer()
	totalEvals := 0.0
	for i := 0; i < b.N; i++ {
		in, err := d.Instance(cons, core.DefaultCost)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunIntelSample(context.Background(), in, core.RunOptions{RNG: rng.Split()})
		if err != nil {
			b.Fatal(err)
		}
		totalEvals += float64(res.TotalEvaluations)
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
	groups := make([]core.PerfectInfoGroup, 20)
	for i := range groups {
		groups[i] = core.PerfectInfoGroup{
			Key:     "g",
			Correct: rng.IntN(1000),
			Wrong:   rng.IntN(1000),
		}
	}
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolvePerfectInformation(groups, cons, core.DefaultCost); err != nil {
			b.Fatal(err)
		}
	}
}
