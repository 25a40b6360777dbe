// Joinscan demonstrates the Section 5 selection-before-join extension: the
// selected loans are later joined with a payments table, so a loan that
// joins with many payments matters more to join-result precision/recall.
// The optimizer weighs each tuple by its join multiplicity — it will
// verify a mediocre-selectivity loan with many payments before a
// high-selectivity loan with none.
//
//	go run ./examples/joinscan
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/table"
)

func main() {
	spec := dataset.LendingClub.Scaled(0.1) // ~5.3k loans
	d, err := dataset.Generate(spec, 5)
	if err != nil {
		log.Fatal(err)
	}

	// Payments: low-grade loans generate many more payment rows (smaller
	// installments), inverting the usual priorities.
	rng := stats.NewRNG(17)
	grades, err := d.Table.StringColumn("grade")
	if err != nil {
		log.Fatal(err)
	}
	var payments bytes.Buffer
	payments.WriteString("loan_id,amount\n")
	paymentRows := 0
	for row := 0; row < d.Table.NumRows(); row++ {
		mult := 1
		if grades.At(row) >= "E" { // late alphabet = low grade = many payments
			mult = 6
		}
		for k := 0; k < mult; k++ {
			fmt.Fprintf(&payments, "%d,%.2f\n", row, 50+rng.Float64()*500)
			paymentRows++
		}
	}

	var loansCSV bytes.Buffer
	if err := table.WriteCSV(d.Table, &loansCSV); err != nil {
		log.Fatal(err)
	}

	db := predeval.Open(23)
	if err := db.LoadCSV("loans", &loansCSV); err != nil {
		log.Fatal(err)
	}
	if err := db.LoadCSV("payments", &payments); err != nil {
		log.Fatal(err)
	}
	truth := d.Truth()
	if err := db.RegisterUDF("good_credit", func(v any) bool {
		return truth(int(v.(int64)))
	}, 3); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("loans: %d, payments: %d\n", d.Table.NumRows(), paymentRows)

	rows, err := db.QueryContext(context.Background(), `SELECT id, grade FROM loans
		JOIN payments ON loans.id = payments.loan_id
		WHERE good_credit(id) = 1
		WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8
		GROUP ON grade`)
	if err != nil {
		log.Fatal(err)
	}
	st := rows.Stats()
	fmt.Printf("selected %d loans with %d UDF calls (cost %.0f)\n",
		rows.Len(), st.Evaluations, st.Cost)

	// Join-weighted quality: every loan counts once per matching payment.
	mult := map[int]int{}
	for row := 0; row < d.Table.NumRows(); row++ {
		if grades.At(row) >= "E" {
			mult[row] = 6
		} else {
			mult[row] = 1
		}
	}
	weightedCorrect, weightedOut, weightedTotal := 0, 0, 0
	for row := 0; row < d.Table.NumRows(); row++ {
		if truth(row) {
			weightedTotal += mult[row]
		}
	}
	for _, id := range rows.RowIDs() {
		weightedOut += mult[id]
		if truth(id) {
			weightedCorrect += mult[id]
		}
	}
	fmt.Printf("join-result precision %.3f, recall %.3f (weighted by payment multiplicity)\n",
		float64(weightedCorrect)/float64(weightedOut),
		float64(weightedCorrect)/float64(weightedTotal))
}
