// Creditcheck reproduces the paper's motivating scenario (Section 1) with
// the library-level API instead of SQL: a bank wants to contact customers
// with good credit, each credit check costs money, and the loan grade
// correlates with the outcome. The example prints the per-grade execution
// strategy the optimizer chooses — which grades it trusts outright, which
// it verifies, and which it discards.
//
//	go run ./examples/creditcheck
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

func main() {
	// A LendingClub-like portfolio (calibrated synthetic; see DESIGN.md).
	spec := dataset.LendingClub.Scaled(0.25) // ~13k loans for a quick demo
	d, err := dataset.Generate(spec, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("portfolio: %d loans, %.0f%% with good outcomes\n",
		d.Table.NumRows(), 100*d.OverallSelectivity())

	cons := core.Constraints{Alpha: 0.9, Beta: 0.9, Rho: 0.9}
	in, err := d.Instance(cons, core.DefaultCost)
	if err != nil {
		log.Fatal(err)
	}

	rng := stats.NewRNG(99)
	res, err := core.RunIntelSample(context.Background(), in, core.RunOptions{RNG: rng})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nper-grade strategy (R = retrieve prob., E = evaluate prob.):")
	groups, _ := d.PredictorGroups()
	for i, g := range groups {
		var verdict string
		switch {
		case res.Strategy.R[i] < 0.05:
			verdict = "discard (credit almost never good)"
		case res.Strategy.E[i] > 0.95*res.Strategy.R[i]:
			verdict = "verify every retrieved customer"
		case res.Strategy.E[i] < 0.05:
			verdict = "trust without checking"
		default:
			verdict = "verify a fraction"
		}
		fmt.Printf("  grade %s: %5d loans  est. good %.2f  R=%.2f E=%.2f  → %s\n",
			g.Key, len(g.Rows), res.Infos[i].Selectivity,
			res.Strategy.R[i], res.Strategy.E[i], verdict)
	}

	m := core.ComputeMetrics(res.Output, d.Truth(), d.TotalCorrect())
	fmt.Printf("\ncampaign list: %d customers\n", len(res.Output))
	fmt.Printf("credit checks: %d (vs %d for the exact query)\n",
		res.TotalEvaluations, d.Table.NumRows())
	fmt.Printf("achieved precision %.3f (bound %.2f), recall %.3f (bound %.2f)\n",
		m.Precision, cons.Alpha, m.Recall, cons.Beta)
	fmt.Printf("total cost %.0f vs %.0f exact — %.0f%% cheaper\n",
		res.TotalCost, float64(d.Table.NumRows())*4,
		100*(1-res.TotalCost/(float64(d.Table.NumRows())*4)))
}
