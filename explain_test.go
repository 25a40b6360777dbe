package predeval

import (
	"context"
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
// covers, as the Plan lines QueryContext returns for an EXPLAIN statement.
// These strings are the public contract of the EXPLAIN keyword (and of
// predsqld's {"plan": [...]} answer to it) — update them deliberately.
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
				`└─ prob-eval strategy=«per-group retrieve/evaluate coins»  (rows≈200, cost≤492)`,
				`   └─ solve[constrained] objective=«min cost s.t. α=0.9 β=0.85 ρ=0.9»`,
				`      └─ sample allocator=«two-third-power num=2.25»  (rows≈77, cost≈308)`,
				`         └─ group-resolve[pinned] column=grade  (rows≈200)`,
				`            └─ filter predicates=«grade = "A"»  (rows≈200)`,
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
			rows, err := db.QueryContext(context.Background(), "EXPLAIN "+tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if rows.Len() != 0 {
				t.Fatalf("EXPLAIN returned %d rows, want none", rows.Len())
			}
			got := rows.Plan()
			if len(got) != len(tc.want) {
				t.Fatalf("got %d lines, want %d:\n%s", len(got), len(tc.want), strings.Join(got, "\n"))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("line %d:\n got %q\nwant %q", i, got[i], tc.want[i])
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
	if _, err := db.QueryContext(context.Background(), "EXPLAIN SELECT * FROM loans WHERE counted(id) = 1 WITH RECALL 0.8"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryContext(context.Background(), "EXPLAIN SELECT * FROM loans WHERE counted(id) = 1"); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("EXPLAIN invoked the UDF %d times", calls)
	}
	if _, err := db.QueryContext(context.Background(), "EXPLAIN SELECT * FROM loans WHERE missing(id) = 1"); err == nil {
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
	rows, err := db.QueryContext(context.Background(), `SELECT id FROM loans
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

// TestExplainRejectsWhatExecutionRejects: every name a statement references
// is resolved in one place (engine.bindStatement), so EXPLAIN, Query and
// QueryStream refuse a statement with a bad name identically — whichever
// name it is, whatever the shape. (Before binding owned the cheap filters,
// EXPLAIN planned a statement whose filter column did not exist and only
// execution refused it.)
func TestExplainRejectsWhatExecutionRejects(t *testing.T) {
	t.Run("re-registered-udf", testReRegisteredUDFSeenWhole)
	db := explainDB(t)
	type parts struct{ cols, table, filterCol, udf, arg, joinTable, leftKey, rightKey, groupOn string }
	good := parts{cols: "id, grade", table: "loans", filterCol: "grade", udf: "good_credit", arg: "id",
		joinTable: "orders", leftKey: "id", rightKey: "loan_id", groupOn: "grade"}
	where := func(p parts) string {
		return fmt.Sprintf("WHERE %s = 'A' AND %s(%s) = 1", p.filterCol, p.udf, p.arg)
	}
	shapes := []struct {
		name    string
		sql     func(parts) string
		grouped bool // exact shapes ignore GROUP ON, so only grouping shapes bind it
		joined  bool
	}{
		{name: "exact", sql: func(p parts) string {
			return fmt.Sprintf("SELECT %s FROM %s %s", p.cols, p.table, where(p))
		}},
		{name: "approx", grouped: true, sql: func(p parts) string {
			return fmt.Sprintf("SELECT %s FROM %s %s WITH RECALL 0.8 GROUP ON %s", p.cols, p.table, where(p), p.groupOn)
		}},
		{name: "twopred", grouped: true, sql: func(p parts) string {
			return fmt.Sprintf("SELECT %s FROM %s %s AND rich(income) = 1 WITH PRECISION 0.8 GROUP ON %s", p.cols, p.table, where(p), p.groupOn)
		}},
		{name: "join", grouped: true, joined: true, sql: func(p parts) string {
			return fmt.Sprintf("SELECT %s FROM %s JOIN %s ON %s.%s = %s.%s %s WITH RECALL 0.8 GROUP ON %s",
				p.cols, p.table, p.joinTable, p.table, p.leftKey, p.joinTable, p.rightKey, where(p), p.groupOn)
		}},
	}
	breaks := []struct {
		name            string
		mut             func(*parts)
		grouped, joined bool // applies only to shapes that bind the name
	}{
		{name: "table", mut: func(p *parts) { p.table = "nope" }},
		{name: "udf", mut: func(p *parts) { p.udf = "nope" }},
		{name: "udf-arg", mut: func(p *parts) { p.arg = "nope" }},
		{name: "projection", mut: func(p *parts) { p.cols = "id, nope" }},
		{name: "filter-column", mut: func(p *parts) { p.filterCol = "nope" }},
		{name: "group-on", grouped: true, mut: func(p *parts) { p.groupOn = "nope" }},
		{name: "join-table", joined: true, mut: func(p *parts) { p.joinTable = "nope" }},
		{name: "join-left-key", joined: true, mut: func(p *parts) { p.leftKey = "nope" }},
		{name: "join-right-key", joined: true, mut: func(p *parts) { p.rightKey = "nope" }},
	}
	// run returns the error each of the three entry points gives the statement.
	run := func(sql string) [3]error {
		var errs [3]error
		_, errs[0] = db.QueryContext(context.Background(), "EXPLAIN "+sql)
		_, errs[1] = db.QueryContext(context.Background(), sql)
		_, errs[2] = db.QueryStream(context.Background(), sql, StreamOptions{},
			func([]int, [][]string) error { return nil })
		return errs
	}
	entry := [3]string{"Explain", "Query", "QueryStream"}
	for _, sh := range shapes {
		for i, err := range run(sh.sql(good)) {
			if err != nil {
				t.Fatalf("%s: %s refused the well-formed statement: %v", sh.name, entry[i], err)
			}
		}
		for _, br := range breaks {
			if (br.grouped && !sh.grouped) || (br.joined && !sh.joined) {
				continue
			}
			p := good
			br.mut(&p)
			errs := run(sh.sql(p))
			for i, err := range errs {
				if err == nil {
					t.Errorf("%s/%s: %s accepted %q", sh.name, br.name, entry[i], sh.sql(p))
				} else if errs[0] != nil && err.Error() != errs[0].Error() {
					t.Errorf("%s/%s: %s says %q, Explain says %q", sh.name, br.name, entry[i], err, errs[0])
				}
			}
		}
	}
}

// testReRegisteredUDFSeenWhole: a statement reads each UDF from the registry
// once when it binds, so the body it runs and the o_e it plans and bills with
// come from the same registration — before and after a re-registration.
func testReRegisteredUDFSeenWhole(t *testing.T) {
	const n = 90
	db, _ := openLoanDB(t, n)
	for _, reg := range []struct {
		verdict bool
		cost    float64
	}{{true, 2}, {false, 7}} {
		if err := db.RegisterUDF("flip", func(any) bool { return reg.verdict }, reg.cost); err != nil {
			t.Fatal(err)
		}
		rows, err := db.QueryContext(context.Background(), "SELECT id FROM loans WHERE flip(id) = 1")
		if err != nil {
			t.Fatal(err)
		}
		wantRows := 0
		if reg.verdict {
			wantRows = n
		}
		if wantCost := n * (1 + reg.cost); rows.Len() != wantRows || rows.Stats().Cost != wantCost {
			t.Fatalf("o_e=%g: %d rows at cost %g, want %d rows at cost %g",
				reg.cost, rows.Len(), rows.Stats().Cost, wantRows, wantCost)
		}
		plan, err := db.QueryContext(context.Background(), "EXPLAIN SELECT id FROM loans WHERE flip(id) = 1")
		if err != nil {
			t.Fatal(err)
		}
		if want, text := fmt.Sprintf("cost≈%g)", n*(1+reg.cost)), plan.Plan()[0]; !strings.Contains(text, want) {
			t.Fatalf("o_e=%g: EXPLAIN lacks %q:\n%s", reg.cost, want, text)
		}
	}
}
