// Creditcheck reproduces the paper's motivating scenario (Section 1): a bank
// wants to contact customers with good credit, each credit check costs
// money, and the loan grade correlates with the outcome. The query pins
// GROUP ON grade and asks with EXPLAIN ANALYZE, which returns the campaign
// list and the annotated plan of the same run, so the example prints what
// each stage of the pipeline did — how many loans the sample stage examined,
// how many checks the plan then spent — beside the campaign list's quality.
//
// The per-grade strategy itself (which grades are trusted outright, verified
// or discarded: the R and E of Section 3) is not printed: the engine does
// not expose it until ROADMAP item 6's certificate lands, and this example
// runs the pipeline users run rather than keep a private one to show it.
//
//	go run ./examples/creditcheck
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/dataset"
	"repro/internal/table"
)

func main() {
	// A LendingClub-like portfolio (calibrated synthetic; see DESIGN.md).
	spec := dataset.LendingClub.Scaled(0.25) // ~13k loans for a quick demo
	d, err := dataset.Generate(spec, 7)
	if err != nil {
		log.Fatal(err)
	}
	n := d.Table.NumRows()
	fmt.Printf("portfolio: %d loans, %.0f%% with good outcomes\n", n, 100*d.OverallSelectivity())

	var buf bytes.Buffer
	if err := table.WriteCSV(d.Table, &buf); err != nil {
		log.Fatal(err)
	}
	db := predeval.Open(99)
	if err := db.LoadCSV("loans", &buf); err != nil {
		log.Fatal(err)
	}
	truth := d.Truth()
	if err := db.RegisterUDF("good_credit", func(v any) bool {
		return truth(int(v.(int64)))
	}, 3); err != nil {
		log.Fatal(err)
	}

	const alpha, beta = 0.9, 0.9
	rows, err := db.QueryContext(context.Background(),
		`EXPLAIN ANALYZE SELECT id FROM loans WHERE good_credit(id) = 1
		 WITH PRECISION 0.9 RECALL 0.9 PROBABILITY 0.9 GROUP ON grade`)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nEXPLAIN ANALYZE:")
	for _, line := range rows.Plan() {
		fmt.Println("  " + line)
	}

	correct := 0
	for _, id := range rows.RowIDs() {
		if truth(id) {
			correct++
		}
	}
	st := rows.Stats()
	exact := float64(n) * 4 // o_r + o_e per loan
	fmt.Printf("\ncampaign list: %d customers\n", rows.Len())
	fmt.Printf("credit checks: %d (%d of them sampling; vs %d for the exact query)\n",
		st.Evaluations, st.Sampled, n)
	fmt.Printf("achieved precision %.3f (bound %.2f), recall %.3f (bound %.2f)\n",
		float64(correct)/float64(rows.Len()), alpha, float64(correct)/float64(d.TotalCorrect()), beta)
	fmt.Printf("total cost %.0f vs %.0f exact — %.0f%% cheaper\n",
		st.Cost, exact, 100*(1-st.Cost/exact))
}
