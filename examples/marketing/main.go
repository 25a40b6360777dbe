// Marketing demonstrates two advanced features on the bank-telemarketing
// scenario (UCI Bank Marketing stand-in): the logistic-regression virtual
// column (Section 6.3.2) for when no single column predicts the UDF well,
// and the fixed-budget objective (Section 5): "call at most this much —
// reach as many subscribers as possible."
//
//	go run ./examples/marketing
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
	spec := dataset.Marketing.Scaled(0.25) // ~10k contacts
	d, err := dataset.Generate(spec, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign pool: %d contacts, %.1f%% would subscribe\n",
		d.Table.NumRows(), 100*d.OverallSelectivity())

	// Move the table into the SQL facade via CSV (what a user would do).
	var buf bytes.Buffer
	if err := table.WriteCSV(d.Table, &buf); err != nil {
		log.Fatal(err)
	}
	db := predeval.Open(11)
	// Keep the two campaign runs' costs independently comparable: disable
	// the cross-query UDF cache (production traffic wants it on).
	db.SetUDFCache(false)
	if err := db.LoadCSV("contacts", &buf); err != nil {
		log.Fatal(err)
	}
	truth := d.Truth()
	if err := db.RegisterUDF("will_subscribe", func(v any) bool {
		return truth(int(v.(int64)))
	}, 3); err != nil {
		log.Fatal(err)
	}

	// 1. The virtual column: let a logistic regression combine all the
	// feature columns into one predictor, bucketed into 10 groups.
	rows, err := db.QueryContext(context.Background(), `SELECT id FROM contacts WHERE will_subscribe(id) = 1
		WITH PRECISION 0.7 RECALL 0.8 PROBABILITY 0.8 GROUP ON virtual`)
	if err != nil {
		log.Fatal(err)
	}
	report("virtual column", d, rows)

	// 2. A fixed budget: precision at least 0.7, spend at most 8000 cost
	// units, maximize how many subscribers we reach.
	budget, err := db.QueryContext(context.Background(), `SELECT id FROM contacts WHERE will_subscribe(id) = 1
		WITH PRECISION 0.7 PROBABILITY 0.8 GROUP ON emp_var_rate BUDGET 8000`)
	if err != nil {
		log.Fatal(err)
	}
	report("budget 8000", d, budget)
	fmt.Printf("  planner could afford a recall bound of %.2f\n",
		budget.Stats().AchievedRecallBound)
}

func report(name string, d *dataset.Dataset, rows *predeval.Rows) {
	truth := d.Truth()
	correct := 0
	for _, id := range rows.RowIDs() {
		if truth(id) {
			correct++
		}
	}
	prec := 0.0
	if rows.Len() > 0 {
		prec = float64(correct) / float64(rows.Len())
	}
	recall := float64(correct) / float64(d.TotalCorrect())
	st := rows.Stats()
	fmt.Printf("\n%s:\n  %d rows, %d UDF calls, cost %.0f\n  precision %.3f recall %.3f\n",
		name, rows.Len(), st.Evaluations, st.Cost, prec, recall)
}
