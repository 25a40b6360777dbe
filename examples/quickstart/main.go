// Quickstart: load a CSV, register an expensive predicate, and compare an
// exact query against an approximate one with precision/recall bounds.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync/atomic"

	"repro"
	"repro/internal/stats"
)

func main() {
	// Build a small loans table in memory: the hidden credit outcome
	// correlates with the grade column (A: 90%, B: 50%, C: 10% good).
	const n = 6000
	rng := stats.NewRNG(2024)
	var csv strings.Builder
	csv.WriteString("id,grade,amount\n")
	truth := make(map[int64]bool, n)
	grades := []string{"A", "B", "C"}
	goodRate := []float64{0.9, 0.5, 0.1}
	for i := 0; i < n; i++ {
		g := i % 3
		truth[int64(i)] = rng.Bernoulli(goodRate[g])
		fmt.Fprintf(&csv, "%d,%s,%.2f\n", i, grades[g], 1000+rng.Float64()*24000)
	}

	db := predeval.Open(42)
	// The engine memoizes UDF outcomes across queries by default; disable
	// that here so the exact and approximate runs have independently
	// comparable costs (production traffic wants it on).
	db.SetUDFCache(false)
	if err := db.LoadCSV("loans", strings.NewReader(csv.String())); err != nil {
		log.Fatal(err)
	}

	// The "expensive" UDF: pretend each call hits a credit bureau. Cost 3
	// per call vs 1 per tuple retrieval (the paper's default ratio). The
	// counter is atomic because the engine fans UDF calls across workers.
	var bureauCalls atomic.Int64
	err := db.RegisterUDF("good_credit", func(v any) bool {
		bureauCalls.Add(1)
		return truth[v.(int64)]
	}, 3)
	if err != nil {
		log.Fatal(err)
	}

	// Exact query: evaluates the UDF on every tuple.
	exact, err := db.QueryContext(context.Background(), "SELECT id, grade FROM loans WHERE good_credit(id) = 1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact:       %5d rows, %5d UDF calls, cost %6.0f\n",
		exact.Len(), exact.Stats().Evaluations, exact.Stats().Cost)

	// Approximate query: 90% precision and recall, each with probability
	// 90%. The engine discovers that grade predicts the UDF, samples a few
	// tuples per grade, and skips or trusts whole groups.
	approx, err := db.QueryContext(context.Background(), `SELECT id, grade FROM loans WHERE good_credit(id) = 1
		WITH PRECISION 0.9 RECALL 0.9 PROBABILITY 0.9`)
	if err != nil {
		log.Fatal(err)
	}
	st := approx.Stats()
	fmt.Printf("approximate: %5d rows, %5d UDF calls, cost %6.0f  (correlated column: %s)\n",
		approx.Len(), st.Evaluations, st.Cost, st.ChosenColumn)

	// Score the approximate answer against the ground truth.
	totalGood := 0
	for _, v := range truth {
		if v {
			totalGood++
		}
	}
	correct := 0
	for _, id := range approx.RowIDs() {
		if truth[int64(id)] {
			correct++
		}
	}
	fmt.Printf("achieved:    precision %.3f, recall %.3f\n",
		float64(correct)/float64(approx.Len()), float64(correct)/float64(totalGood))
	fmt.Printf("savings:     %.0f%% fewer UDF calls than exact\n",
		100*(1-float64(st.Evaluations)/float64(exact.Stats().Evaluations)))
}
