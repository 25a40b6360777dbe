// Micro-benchmarks for the optimizer paths cmd/predbench (the benchmark of
// record, BENCHMARK.json) has no layer metric for and no test times;
// approx_grouped's op as a Go benchmark, so -cpu 1,2 can show whether the
// second CPU pays on the approximate path; and catalog_restart's op, so a
// change to the durable catalog reads its cost without predbench. What
// predbench or a test already covers is not repeated here: the paper's
// tables and figures run in experiments.TestAllExperimentsRun, and the SQL
// front end, the convex planners, the executor, pool speedup, streaming
// first-batch latency, tracing overhead and dataset generation are
// predbench layer metrics (see DESIGN.md, "Benchmarks").
package predeval_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	predeval "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// BenchmarkApproxGroupedStatement measures approx_grouped's op through the
// facade: the four paper datasets, each queried at 0.9/0.9/0.9 GROUP ON its
// predictor, cache off, the instant label UDF, under a cancellable context.
// Dataset generation is outside the timer. Run it at -cpu 1,2 to see whether
// the second CPU pays on the approximate path.
func BenchmarkApproxGroupedStatement(b *testing.B) {
	type stmt struct {
		db  *predeval.DB
		sql string
	}
	var stmts []stmt
	for _, spec := range dataset.All() {
		d, err := dataset.Generate(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		db := predeval.Open(1)
		db.SetUDFCache(false)
		if err := db.Engine().RegisterTable(d.Table); err != nil {
			b.Fatal(err)
		}
		labels := d.Labels
		if err := db.RegisterUDF("f", func(v any) bool { return labels[v.(int64)] }, 0); err != nil {
			b.Fatal(err)
		}
		stmts = append(stmts, stmt{db, "SELECT id FROM " + spec.Name + " WHERE f(id) = 1" +
			" WITH PRECISION 0.9 RECALL 0.9 PROBABILITY 0.9 GROUP ON " + spec.Predictor})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ResetTimer()
	totalEvals := 0.0
	for i := 0; i < b.N; i++ {
		for _, s := range stmts {
			rows, err := s.db.QueryContext(ctx, s.sql)
			if err != nil {
				b.Fatal(err)
			}
			totalEvals += float64(rows.Stats().Evaluations)
		}
	}
	b.ReportMetric(totalEvals/float64(b.N), "udfcalls/op")
}

// BenchmarkCatalogRestart measures catalog_restart's op through the
// facade: a fresh DB on census (seed 1, cross-query cache on, the instant
// label UDF) opens the durable catalog a cold pass wrote, answers the
// 0.9/0.9/0.9 approximate statement and the exact one from it without a
// UDF call, and closes it. It reports ms/op and the catalog directory's
// bytes per persisted verdict (B/verdict).
func BenchmarkCatalogRestart(b *testing.B) {
	d, err := dataset.Generate(dataset.Census, 1)
	if err != nil {
		b.Fatal(err)
	}
	labels := d.Labels
	open := func() *predeval.DB {
		db := predeval.Open(1)
		db.SetUDFCache(true)
		if err := db.Engine().RegisterTable(d.Table); err != nil {
			b.Fatal(err)
		}
		if err := db.RegisterUDF("f", func(v any) bool { return labels[v.(int64)] }, 0); err != nil {
			b.Fatal(err)
		}
		return db
	}
	exact := "SELECT id FROM census WHERE f(id) = 1"
	stmts := []string{exact + " WITH PRECISION 0.9 RECALL 0.9 PROBABILITY 0.9", exact}
	ctx := context.Background()
	dir := b.TempDir()
	db := open()
	if err := db.OpenCatalog(dir); err != nil {
		b.Fatal(err)
	}
	for _, sql := range stmts {
		if _, err := db.QueryContext(ctx, sql); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.FlushCatalog(); err != nil {
		b.Fatal(err)
	}
	verdicts := db.Catalog().Stats().OutcomeRows
	if err := db.CloseCatalog(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := open()
		if err := db.OpenCatalog(dir); err != nil {
			b.Fatal(err)
		}
		for _, sql := range stmts {
			rows, err := db.QueryContext(ctx, sql)
			if err != nil {
				b.Fatal(err)
			}
			if n := rows.Stats().Evaluations; n != 0 {
				b.Fatalf("warm restart paid %d UDF calls", n)
			}
		}
		if err := db.CloseCatalog(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	size := int64(0)
	for _, name := range []string{"catalog.snap", "catalog.log"} {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			b.Fatal(err)
		}
		size += info.Size()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
	b.ReportMetric(float64(size)/float64(verdicts), "B/verdict")
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
