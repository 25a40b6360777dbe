package predeval

import (
	"fmt"
	"strings"
	"testing"
)

// explainDB is openLoanDB plus the extra UDFs and join table the EXPLAIN
// goldens reference.
func explainDB(t *testing.T) *DB {
	t.Helper()
	db, _ := openLoanDB(t, 600)
	if err := db.RegisterUDF("rich", func(v any) bool { return v.(float64) > 70000 }, 0); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterUDF("div3", func(v any) bool { return v.(int64)%3 == 0 }, 0); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("loan_id,amt\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i%50, i)
	}
	if err := db.LoadCSV("orders", strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExplainGolden pins the EXPLAIN text of every query shape the planner
// covers. These strings are the public contract of DB.Explain (and of
// predsqld's "explain" flag) — update them deliberately.
func TestExplainGolden(t *testing.T) {
	db := explainDB(t)
	cases := []struct {
		name string
		sql  string
		want []string
	}{
		{"exact select", "SELECT * FROM loans WHERE good_credit(id) = 1", []string{
			`exact-eval predicate=good_credit(id)=1  (rows≈600, cost≈2400)`,
			`└─ scan table=loans  (rows≈600)`,
		}},
		{"approx pinned with filter",
			"SELECT * FROM loans WHERE grade = 'A' AND good_credit(id) = 1 WITH PRECISION 0.9 RECALL 0.85 PROBABILITY 0.9 GROUP ON grade", []string{
				`merge output=«row ids, ascending»`,
				`└─ prob-eval strategy=«per-group retrieve/evaluate coins»  (rows≈600, cost≤1760)`,
				`   └─ solve[constrained] objective=«min cost s.t. α=0.9 β=0.85 ρ=0.9»`,
				`      └─ sample allocator=«two-third-power num=2.25»  (rows≈160, cost≈640)`,
				`         └─ group-resolve[pinned] column=grade  (rows≈600)`,
				`            └─ filter predicates=«grade = "A"»  (rows≈600)`,
				`               └─ scan table=loans  (rows≈600)`,
			}},
		{"approx discover", "SELECT * FROM loans WHERE good_credit(id) = 1 WITH RECALL 0.8", []string{
			`merge output=«row ids, ascending»`,
			`└─ prob-eval strategy=«per-group retrieve/evaluate coins»  (rows≈600, cost≤1760)`,
			`   └─ solve[constrained] objective=«min cost s.t. α=0.9 β=0.8 ρ=0.9»`,
			`      └─ sample allocator=«two-third-power num=2.25»  (rows≈160, cost≈640)`,
			`         └─ group-resolve[auto] column=«discovered at runtime (§4.4 column scan)» labeling=«≈6 rows»  (rows≈600, cost≈24)`,
			`            └─ scan table=loans  (rows≈600)`,
		}},
		{"budget", "SELECT * FROM loans WHERE good_credit(id) = 1 WITH RECALL 0.8 BUDGET 900 GROUP ON grade", []string{
			`merge output=«row ids, ascending»`,
			`└─ prob-eval strategy=«per-group retrieve/evaluate coins»  (rows≈600, cost≤1760)`,
			`   └─ solve[budget] objective=«max recall s.t. α=0.9 ρ=0.9 cost≤900»`,
			`      └─ sample allocator=«two-third-power num=2.25»  (rows≈160, cost≈640)`,
			`         └─ group-resolve[pinned] column=grade  (rows≈600)`,
			`            └─ scan table=loans  (rows≈600)`,
		}},
		{"two-pred conjunction",
			"SELECT * FROM loans WHERE good_credit(id) = 1 AND rich(income) = 1 WITH PRECISION 0.8 GROUP ON grade", []string{
				`merge output=«row ids, ascending»`,
				`└─ conj-exec  (rows≈600, cost≤3206)`,
				`   └─ conj-solve actions=«discard | assume-both | eval-f1 | eval-f2 | eval-both (§5)»`,
				`      └─ conj-sample fused=«all 2 predicates per sampled row»  (rows≈142, cost≈994)`,
				`         └─ group-resolve[pinned] column=grade  (rows≈600)`,
				`            └─ scan table=loans  (rows≈600)`,
			}},
		{"n-ary conjunction",
			"SELECT * FROM loans WHERE good_credit(id) = 1 AND rich(income) = 1 AND div3(id) = 1 WITH PRECISION 0.8", []string{
				`conj-waves[greedy] order=«cheapest-first by sampled cost/(1−selectivity)» short-circuit=«each wave evaluates only prior survivors»  (rows≈600, cost≤4580)`,
				`└─ conj-sample fused=«all 3 predicates per sampled row»  (rows≈142, cost≈1420)`,
				`   └─ scan table=loans  (rows≈600)`,
			}},
		{"exact conjunction", "SELECT * FROM loans WHERE good_credit(id) = 1 AND rich(income) = 1", []string{
			`conj-waves[query-order] order=«good_credit(id)=1 AND rich(income)=1» short-circuit=«each wave evaluates only prior survivors»  (rows≈600, cost≤4200)`,
			`└─ scan table=loans  (rows≈600)`,
		}},
		{"select-join",
			"SELECT * FROM loans JOIN orders ON loans.id = orders.loan_id WHERE good_credit(id) = 1 WITH RECALL 0.8 GROUP ON grade", []string{
				`merge output=«row ids, ascending»`,
				`└─ prob-eval strategy=«per-subgroup retrieve/evaluate coins»  (rows≈600, cost≤1760)`,
				`   └─ solve[join-weight] objective=«min cost s.t. join-weighted α=0.9 β=0.8 ρ=0.9»`,
				`      └─ sample allocator=«two-third-power num=2.25»  (rows≈160, cost≈640)`,
				`         └─ join-group weights=«join multiplicity of id in orders.loan_id (100 rows)»  (rows≈600)`,
				`            └─ group-resolve[pinned] column=grade  (rows≈600)`,
				`               └─ scan table=loans  (rows≈600)`,
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := db.Explain(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
			if len(lines) != len(tc.want) {
				t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(tc.want), got)
			}
			for i := range lines {
				if lines[i] != tc.want[i] {
					t.Errorf("line %d:\n got %q\nwant %q", i, lines[i], tc.want[i])
				}
			}
			// The EXPLAIN keyword routes through Query as plan rows.
			rows, err := db.Query("EXPLAIN " + tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if cols := rows.Columns(); len(cols) != 1 || cols[0] != "plan" {
				t.Fatalf("explain columns %v", cols)
			}
			if rows.Len() != len(tc.want) {
				t.Fatalf("explain rows %d, want %d", rows.Len(), len(tc.want))
			}
			for i := 0; i < rows.Len(); i++ {
				if rows.Row(i)[0] != tc.want[i] {
					t.Fatalf("explain row %d = %q, want %q", i, rows.Row(i)[0], tc.want[i])
				}
			}
		})
	}
}

// TestExplainDoesNotExecute: planning must not invoke the UDF.
func TestExplainDoesNotExecute(t *testing.T) {
	db, _ := openLoanDB(t, 120)
	calls := 0
	if err := db.RegisterUDF("counted", func(v any) bool { calls++; return true }, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Explain("SELECT * FROM loans WHERE counted(id) = 1 WITH RECALL 0.8"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("EXPLAIN SELECT * FROM loans WHERE counted(id) = 1"); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("EXPLAIN invoked the UDF %d times", calls)
	}
	if _, err := db.Explain("SELECT * FROM loans WHERE missing(id) = 1"); err == nil {
		t.Fatal("EXPLAIN of unknown UDF accepted")
	}
}

// TestQueryNaryConjunctionSQL: a 3-UDF conjunction parses, plans and
// executes end-to-end through the SQL layer, short-circuiting below the
// all-predicates-on-all-rows bound.
func TestQueryNaryConjunctionSQL(t *testing.T) {
	db, truth := openLoanDB(t, 1500)
	if err := db.RegisterUDF("div3", func(v any) bool { return v.(int64)%3 == 0 }, 0); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterUDF("div5", func(v any) bool { return v.(int64)%5 == 0 }, 0); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`SELECT id FROM loans
		WHERE good_credit(id) = 1 AND div3(id) = 1 AND div5(id) = 1
		WITH PRECISION 0.8 RECALL 0.8 GROUP ON grade`)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i := 0; i < 1500; i++ {
		if truth[int64(i)] && i%15 == 0 {
			want = append(want, i)
		}
	}
	got := rows.RowIDs()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d = %d, want %d", i, got[i], want[i])
		}
	}
	if evals := rows.Stats().Evaluations; evals >= 3*1500 {
		t.Fatalf("no short-circuit saving: %d evaluations (all-on-all = %d)", evals, 3*1500)
	}
}

func TestTableInfo(t *testing.T) {
	db, _ := openLoanDB(t, 60)
	info, err := db.TableInfo("loans")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "loans" || info.Rows != 60 {
		t.Fatalf("info %+v", info)
	}
	want := []ColumnInfo{{"id", "int"}, {"grade", "string"}, {"income", "float"}}
	if len(info.Columns) != len(want) {
		t.Fatalf("columns %+v", info.Columns)
	}
	for i, w := range want {
		if info.Columns[i] != w {
			t.Fatalf("column %d = %+v, want %+v", i, info.Columns[i], w)
		}
	}
	if _, err := db.TableInfo("missing"); err == nil {
		t.Fatal("unknown table accepted")
	}
}
