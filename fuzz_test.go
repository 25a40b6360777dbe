package predeval

import (
	"context"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// fuzzDB is a tiny database on which the seed statements bind: every table,
// column and UDF the sqlparse corpus names exists, so mutations explore
// binding and every rewrite rule, not just the parser's rejections.
func fuzzDB(f *testing.F) *DB {
	f.Helper()
	db := Open(1)
	for name, csv := range map[string]string{
		"loans":  "id,grade,income\n0,A,10\n1,B,20\n2,A,30\n3,C,40\n",
		"orders": "loan_id,amt\n0,5\n0,6\n2,7\n",
		"t":      "x,y,z,a,b,c,grade,amount\n0,1,2,3,4,5,A,5000\n1,2,3,4,5,6,B,5000\n2,3,4,5,6,7,A,100\n3,4,5,6,7,8,B,100\n",
	} {
		if err := db.LoadCSV(name, strings.NewReader(csv)); err != nil {
			f.Fatal(err)
		}
	}
	for _, udf := range []string{"good_credit", "f", "g", "h"} {
		if err := db.RegisterUDF(udf, func(v any) bool { return v.(int64)%2 == 0 }, 0); err != nil {
			f.Fatal(err)
		}
	}
	return db
}

// FuzzParsePlanExplain is the parse → bind → plan → explain target: any
// string that parses must bind or be rejected with an error — never panic —
// and once bound, every rewrite rule must shape it into a well-formed chain
// (a scan of the statement's table first, a filter only right after it,
// exactly one finisher and that one last) and EXPLAIN must render it, one
// line per node. Binding is the one gate, so a statement planning refuses is
// refused by execution with the same error before any UDF runs. The seeds
// are the sqlparse corpus (FuzzParse) plus one statement per remaining plan
// shape.
func FuzzParsePlanExplain(f *testing.F) {
	for _, seed := range []string{
		"SELECT * FROM loans WHERE good_credit(id) = 1",
		"select id, grade from loans where f(id) = 0 with precision 0.85 recall 0.75 probability 0.9 group on grade budget 5000;",
		"EXPLAIN SELECT * FROM t WHERE f(x) = 1 AND g(y) = 0 AND h(z) = 1",
		"SELECT * FROM loans JOIN orders ON loans.id = orders.loan_id WHERE f(id) = 1 WITH RECALL 0.8 GROUP ON grade",
		"SELECT * FROM t WHERE grade = 'A' AND f(x) = 1 AND amount = 5000",
		"SELECT * FROM t WHERE f(x) = 1 WITH",
		"SELECT * FROM t WHERE f(x) @ 1",
		"'unterminated",
		"explain",
		"SELECT * FROM t WHERE f(x.y.z) = 1 GROUP ON virtual",
		"SELECT a,b,c FROM t WHERE f(x) = 1 BUDGET 10.5.5",
		"\x00\xff\xfe SELECT",
		"EXPLAIN ANALYZE SELECT a FROM t WHERE f(x) = 1 AND g(y) = 1 WITH PRECISION 0.8 GROUP ON grade",
		"SELECT * FROM t WHERE f(x) = 1 AND g(y) = 0 AND h(z) = 1 WITH RECALL 0.7",
		"SELECT * FROM t WHERE f(x) = 1 WITH PROBABILITY 0.8",
		"SELECT nope FROM t WHERE nope = 1 AND f(x) = 1",
		"SELECT * FROM t WHERE grade = 'A' AND f(x) = 0",
		"SELECT * FROM t WHERE f(x) = 1 AND grade = 'A' AND g(y) = 0 WITH RECALL 0.8 GROUP ON grade",
		"SELECT * FROM t WHERE a = 3 AND f(x) = 1 AND g(y) = 1 AND grade = 'B' AND h(z) = 0",
		"SELECT * FROM t WHERE f(x) = 1 AND g(y) = 0 AND amount = 5000 AND h(z) = 1 AND f(y) = 1 WITH PRECISION 0.8 GROUP ON grade",
	} {
		f.Add(seed)
	}
	eng := fuzzDB(f).Engine()
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := sqlparse.Parse(input)
		if err != nil {
			return
		}
		chain, err := eng.Plan(stmt.Query)
		if err != nil {
			if _, xerr := eng.ExecuteContext(context.Background(), stmt.Query); xerr == nil || xerr.Error() != err.Error() {
				t.Fatalf("%q: planning refuses with %q, execution says %v", input, err, xerr)
			}
			return
		}
		text := plan.Format(chain)
		if lines := strings.Count(text, "\n"); lines != len(chain) {
			t.Fatalf("%q: EXPLAIN renders %d lines for %d nodes:\n%s", input, lines, len(chain), text)
		}
		if len(chain) < 2 || chain[0].Op != plan.OpScan || chain[0].Column != stmt.Query.Table {
			t.Fatalf("%q: chain does not start with a scan of %q:\n%s", input, stmt.Query.Table, text)
		}
		for i, n := range chain {
			finisher := n.Op == plan.OpExactEval || n.Op == plan.OpConjWaves || n.Op == plan.OpMerge
			if n.Op == plan.OpFilter && i != 1 {
				t.Fatalf("%q: filter at position %d, want 1:\n%s", input, i, text)
			}
			if finisher != (i == len(chain)-1) {
				t.Fatalf("%q: node %d (%s) of %d: the one finisher must be last:\n%s", input, i, n.Op, len(chain), text)
			}
		}
	})
}
