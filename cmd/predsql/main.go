// Command predsql runs the library's SQL dialect against CSV files. The
// expensive UDF is simulated from a hidden-labels CSV (id,label), matching
// the paper's evaluation protocol and the files cmd/datagen writes.
//
// Usage:
//
//	predsql -table loans=lc.csv -truth lc_labels.csv -udf good_credit \
//	        -sql "SELECT * FROM loans WHERE good_credit(id) = 1 \
//	              WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8"
//
// The command prints the execution statistics (UDF calls, cost, chosen
// correlated column) and the first rows of the result. Prefix the SQL with
// EXPLAIN to print the estimated operator chain without executing, or with
// EXPLAIN ANALYZE to run the statement as usual and print the chain annotated
// with measured rows, UDF calls, cache traffic, retries and per-operator
// wall time after the result. With -stream the rows print incrementally as
// execution produces them, and -limit stops evaluation early instead of
// merely truncating the printout; the stats follow the rows and cover only
// the work performed. EXPLAIN statements cannot be streamed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/cliutil"
	"repro/internal/labels"
)

func main() {
	var (
		tables cliutil.MultiFlag
		truth  = flag.String("truth", "", "labels CSV (id,label) backing the simulated UDF")
		udf    = flag.String("udf", "good_credit", "UDF name to register")
		sqlStr = flag.String("sql", "", "query to run (prefix EXPLAIN or EXPLAIN ANALYZE to print the plan)")
		seed   = flag.Uint64("seed", 1, "random seed")
		limit  = flag.Int("limit", 10, "max rows to print")
		stream = flag.Bool("stream", false, "stream rows as produced (-limit stops evaluation early); stats print after the rows")
	)
	flag.Var(&tables, "table", "name=path CSV table (repeatable)")
	flag.Parse()

	if len(tables) == 0 || *truth == "" || *sqlStr == "" {
		fmt.Fprintln(os.Stderr, "predsql: -table, -truth and -sql are required")
		flag.Usage()
		os.Exit(2)
	}

	db := predeval.Open(*seed)
	for _, spec := range tables {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("bad -table %q, want name=path", spec))
		}
		if err := db.LoadCSVFile(name, path); err != nil {
			fatal(err)
		}
	}

	truthLabels, err := labels.LoadFile(*truth)
	if err != nil {
		fatal(err)
	}
	// labels.Predicate accepts int64/float64/string ids and faults (query
	// error) on anything else — a silently-false UDF here used to make every
	// query "succeed" with zero rows whenever the id column inferred as
	// Float or String.
	if err := db.RegisterUDF(*udf, labels.Predicate(truthLabels), 0); err != nil {
		fatal(err)
	}

	if *stream {
		runStream(db, *sqlStr, *limit)
		return
	}

	rows, err := db.QueryContext(context.Background(), *sqlStr)
	if err != nil {
		fatal(err)
	}
	st := rows.Stats()
	fmt.Printf("rows: %d\nUDF calls: %d\nretrievals: %d\nsampled: %d\ncost: %.0f\n",
		rows.Len(), st.Evaluations, st.Retrievals, st.Sampled, st.Cost)
	if st.ChosenColumn != "" {
		fmt.Printf("correlated column: %s\n", st.ChosenColumn)
	}
	if st.Exact {
		fmt.Println("mode: exact")
	} else {
		fmt.Println("mode: approximate")
	}
	fmt.Println(strings.Join(rows.Columns(), ","))
	for i := 0; i < rows.Len() && i < *limit; i++ {
		fmt.Println(strings.Join(rows.Row(i), ","))
	}
	if rows.Len() > *limit {
		fmt.Printf("... (%d more rows)\n", rows.Len()-*limit)
	}
	if plan := rows.Plan(); len(plan) > 0 {
		fmt.Println()
		fmt.Println(strings.Join(plan, "\n"))
	}
}

// runStream prints rows as the engine produces them: columns first, then
// one CSV line per row. With a limit, evaluation stops once the limit is
// reached — unevaluated rows are never paid for — and the trailing stats
// cover only the work performed.
func runStream(db *predeval.DB, sqlStr string, limit int) {
	res, err := db.QueryStream(context.Background(), sqlStr,
		predeval.StreamOptions{Limit: limit},
		func(_ []int, cells [][]string) error {
			for _, row := range cells {
				fmt.Println(strings.Join(row, ","))
			}
			return nil
		})
	if err != nil {
		fatal(err)
	}
	st := res.Stats
	fmt.Printf("columns: %s\n", strings.Join(res.Columns, ","))
	fmt.Printf("rows: %d", res.RowCount)
	if res.Truncated {
		fmt.Printf(" (stopped at limit)")
	}
	fmt.Printf("\nUDF calls: %d\nretrievals: %d\nsampled: %d\ncost: %.0f\n",
		st.Evaluations, st.Retrievals, st.Sampled, st.Cost)
	if st.ChosenColumn != "" {
		fmt.Printf("correlated column: %s\n", st.ChosenColumn)
	}
	if st.Exact {
		fmt.Println("mode: exact")
	} else {
		fmt.Println("mode: approximate")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "predsql:", err)
	os.Exit(1)
}
