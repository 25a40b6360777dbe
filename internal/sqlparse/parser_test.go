package sqlparse

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/plan"
)

// errorsAs is errors.As without the test files importing it everywhere.
func errorsAs(err error, target **Error) bool { return errors.As(err, target) }

func TestParseBasic(t *testing.T) {
	stmt, err := Parse("SELECT * FROM loans WHERE good_credit(id) = 1")
	if err != nil {
		t.Fatal(err)
	}
	q := stmt.Query
	want := []plan.Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}}
	if q.Table != "loans" || !reflect.DeepEqual(q.Predicates, want) {
		t.Fatalf("parsed %+v", q)
	}
	if q.Approx != nil || q.GroupOn != "" || q.Budget != 0 || q.Join != nil {
		t.Fatalf("unexpected clauses: %+v", q)
	}
	if len(q.Columns) != 0 {
		t.Fatalf("columns %v", q.Columns)
	}
}

func TestParseFullClause(t *testing.T) {
	stmt, err := Parse(`select id, grade from loans
		where good_credit(id) = 1
		with precision 0.85 recall 0.75 probability 0.9
		group on grade budget 5000;`)
	if err != nil {
		t.Fatal(err)
	}
	q := stmt.Query
	if len(q.Columns) != 2 || q.Columns[0] != "id" || q.Columns[1] != "grade" {
		t.Fatalf("columns %v", q.Columns)
	}
	if q.Approx == nil {
		t.Fatal("missing approx")
	}
	if q.Approx.Precision != 0.85 || q.Approx.Recall != 0.75 || q.Approx.Probability != 0.9 {
		t.Fatalf("approx %+v", q.Approx)
	}
	if q.GroupOn != "grade" || q.Budget != 5000 {
		t.Fatalf("clauses %+v", q)
	}
}

func TestParseWithDefaults(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE f(x) = 1 WITH RECALL 0.7")
	if err != nil {
		t.Fatal(err)
	}
	a := stmt.Query.Approx
	if a == nil || a.Recall != 0.7 || a.Precision != DefaultBound || a.Probability != DefaultBound {
		t.Fatalf("approx %+v", a)
	}
}

func TestParseWithClausesAnyOrder(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE f(x) = 1 WITH PROBABILITY 0.99 PRECISION 0.6")
	if err != nil {
		t.Fatal(err)
	}
	a := stmt.Query.Approx
	if a.Probability != 0.99 || a.Precision != 0.6 || a.Recall != DefaultBound {
		t.Fatalf("approx %+v", a)
	}
}

func TestParseWantZero(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE f(x) = 0")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Query.Predicates[0].Want {
		t.Fatal("want should be false")
	}
}

func TestParseJoin(t *testing.T) {
	stmt, err := Parse("SELECT * FROM loans JOIN orders ON loans.id = orders.loan_id WHERE f(id) = 1 WITH RECALL 0.8 GROUP ON grade")
	if err != nil {
		t.Fatal(err)
	}
	join := stmt.Query.Join
	if join == nil {
		t.Fatal("join missing")
	}
	if *join != (plan.Join{Table: "orders", LeftKey: "id", RightKey: "loan_id"}) {
		t.Fatalf("join %+v", join)
	}
}

func TestSelectJoinWithoutJoin(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE f(x) = 1")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Query.Join != nil {
		t.Fatalf("JOIN-less statement parsed a join clause: %+v", stmt.Query.Join)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	stmt, err := Parse("sElEcT * fRoM t wHeRe f(x) = 1 wItH pReCiSiOn 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Query.Approx.Precision != 0.5 {
		t.Fatalf("approx %+v", stmt.Query.Approx)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE f = 1",
		"SELECT * FROM t WHERE f(x) = 2",
		"SELECT * FROM t WHERE f(x) = 1 WITH",
		"SELECT * FROM t WHERE f(x) = 1 WITH PRECISION",
		"SELECT * FROM t WHERE f(x) = 1 WITH PRECISION 0.5 PRECISION 0.6",
		"SELECT * FROM t WHERE f(x) = 1 GROUP grade",
		"SELECT * FROM t WHERE f(x) = 1 BUDGET",
		"SELECT * FROM t WHERE f(x) = 1 BUDGET 10", // budget without WITH
		"SELECT * FROM t WHERE f(x) = 1 trailing garbage",
		"SELECT * FROM t WHERE f(x) = 1 WITH PRECISION 1.5", // invalid bound
		"SELECT * FROM t JOIN WHERE f(x) = 1",
		"SELECT * FROM t JOIN u ON t.a = u.b WHERE f(x) = 1",                                         // join without WITH
		"SELECT * FROM t JOIN u ON t.a = u.b WHERE f(x) = 1 WITH RECALL 0.8",                         // join without GROUP ON
		"SELECT * FROM t JOIN u ON t.a = u.b WHERE f(x) = 1 WITH RECALL 0.8 GROUP ON g BUDGET 10",    // join with BUDGET
		"SELECT * FROM t JOIN u ON t.a = u.b WHERE f(x) = 1 AND g(x) = 1 WITH RECALL 0.8 GROUP ON g", // join with AND
		"SELECT * FROM t WHERE f(x) = 1 AND g(x) = 1 WITH RECALL 0.8",                                // §5 plan without GROUP ON
		"SELECT ,* FROM t WHERE f(x) = 1",
		"SELECT * FROM t WHERE f(x) @ 1",
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err == nil {
			t.Fatalf("accepted: %s", sql)
		}
	}
}

func TestParseDuplicateClauses(t *testing.T) {
	cases := []string{
		"SELECT * FROM t WHERE f(x) = 1 WITH PRECISION 0.5 WITH RECALL 0.5",
		"SELECT * FROM t WHERE f(x) = 1 GROUP ON a GROUP ON b",
		"SELECT * FROM t WHERE f(x) = 1 WITH RECALL 0.5 BUDGET 10 BUDGET 20",
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err == nil {
			t.Fatalf("accepted: %s", sql)
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("SELECT # FROM"); err == nil {
		t.Fatal("bad character accepted")
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := lex("0.85 42 7.")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "0.85" || toks[1].text != "42" || toks[2].text != "7." {
		t.Fatalf("tokens %v", toks)
	}
}

func TestTokenString(t *testing.T) {
	toks, err := lex("x")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(toks[0].String(), "x") {
		t.Fatalf("token string %s", toks[0])
	}
	if toks[1].String() != "end of input" {
		t.Fatalf("eof string %s", toks[1])
	}
}

// TestParsePredicates: the WHERE clause's UDF predicates land in
// Query.Predicates in source order, and its cheap filters in Query.Filters,
// however the two kinds interleave.
func TestParsePredicates(t *testing.T) {
	type preds = []plan.Conjunct
	type filters = []plan.Filter
	for _, c := range []struct {
		name    string
		sql     string
		preds   preds
		filters filters
	}{
		{"conjunction", `SELECT * FROM posts WHERE relevant(id) = 1 AND safe(id) = 1
			WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8 GROUP ON topic`,
			preds{{UDFName: "relevant", UDFArg: "id", Want: true}, {UDFName: "safe", UDFArg: "id", Want: true}}, nil},
		{"conjunction want zero", "SELECT * FROM t WHERE f(x) = 1 AND g(y) = 0",
			preds{{UDFName: "f", UDFArg: "x", Want: true}, {UDFName: "g", UDFArg: "y"}}, nil},
		{"cheap filters", `SELECT * FROM loans WHERE grade = 'A' AND good_credit(id) = 1
			AND purpose = car AND amount = 5000`,
			preds{{UDFName: "good_credit", UDFArg: "id", Want: true}},
			filters{{Column: "grade", Value: "A"}, {Column: "purpose", Value: "car"}, {Column: "amount", Value: "5000"}}},
		{"n-ary conjunction", "SELECT * FROM t WHERE f(x) = 1 AND g(y) = 0 AND h(z) = 1 AND grade = 'A'",
			preds{{UDFName: "f", UDFArg: "x", Want: true}, {UDFName: "g", UDFArg: "y"}, {UDFName: "h", UDFArg: "z", Want: true}},
			filters{{Column: "grade", Value: "A"}}},
		{"filters between predicates", "SELECT * FROM t WHERE f(x) = 1 AND grade = 'A' AND g(y) = 0",
			preds{{UDFName: "f", UDFArg: "x", Want: true}, {UDFName: "g", UDFArg: "y"}},
			filters{{Column: "grade", Value: "A"}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			stmt, err := Parse(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if q := stmt.Query; !reflect.DeepEqual(q.Predicates, c.preds) || !reflect.DeepEqual(q.Filters, c.filters) {
				t.Fatalf("predicates %+v, filters %+v; want %+v, %+v", q.Predicates, q.Filters, c.preds, c.filters)
			}
		})
	}
}

func TestParseConjunctionErrors(t *testing.T) {
	cases := []string{
		"SELECT * FROM t WHERE f(x) = 1 AND",
		"SELECT * FROM t WHERE f(x) = 1 AND g =", // filter without literal
		"SELECT * FROM t WHERE f(x) = 1 AND g(y) = 3",
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err == nil {
			t.Fatalf("accepted: %s", sql)
		}
	}
}

func TestParseFilterOnlyWhereRejected(t *testing.T) {
	if _, err := Parse("SELECT * FROM t WHERE grade = 'A'"); err == nil {
		t.Fatal("WHERE without a UDF predicate accepted")
	}
}

func TestParseExplain(t *testing.T) {
	stmt, err := Parse("EXPLAIN SELECT * FROM t WHERE f(x) = 1 WITH RECALL 0.8")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Explain || stmt.Query.Table != "t" {
		t.Fatalf("parsed %+v", stmt)
	}
	stmt, err = Parse("explain select * from t where f(x) = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Explain {
		t.Fatal("lowercase explain not recognized")
	}
	if _, err := Parse("EXPLAIN"); err == nil {
		t.Fatal("bare EXPLAIN accepted")
	}
	if _, err := Parse("EXPLAIN EXPLAIN SELECT * FROM t WHERE f(x) = 1"); err == nil {
		t.Fatal("double EXPLAIN accepted")
	}
}

func TestParseExplainAnalyze(t *testing.T) {
	stmt, err := Parse("EXPLAIN ANALYZE SELECT * FROM t WHERE f(x) = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Explain || !stmt.Analyze {
		t.Fatalf("parsed %+v, want Explain and Analyze set", stmt)
	}
	stmt, err = Parse("explain analyze select * from t where f(x) = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Analyze {
		t.Fatal("lowercase explain analyze not recognized")
	}
	// ANALYZE is only a keyword directly after EXPLAIN.
	stmt, err = Parse("SELECT * FROM analyze WHERE f(x) = 1")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Analyze || stmt.Query.Table != "analyze" {
		t.Fatalf("parsed %+v, want plain select from table 'analyze'", stmt)
	}
	if _, err := Parse("ANALYZE SELECT * FROM t WHERE f(x) = 1"); err == nil {
		t.Fatal("bare ANALYZE accepted")
	}
	if _, err := Parse("EXPLAIN ANALYZE"); err == nil {
		t.Fatal("bare EXPLAIN ANALYZE accepted")
	}
}

func TestParseErrorPositions(t *testing.T) {
	var perr *Error
	_, err := Parse("SELECT * FROM t WHERE f(x) @ 1")
	if !errorsAs(err, &perr) {
		t.Fatalf("error %T is not *Error: %v", err, err)
	}
	if perr.Line != 1 || perr.Col != 28 {
		t.Fatalf("position %d:%d, want 1:28 (%v)", perr.Line, perr.Col, err)
	}
	_, err = Parse("SELECT *\nFROM t\nWHERE f(x) = 3")
	if !errorsAs(err, &perr) {
		t.Fatalf("error %T is not *Error: %v", err, err)
	}
	if perr.Line != 3 || perr.Col != 14 {
		t.Fatalf("position %d:%d, want 3:14 (%v)", perr.Line, perr.Col, err)
	}
	if !strings.Contains(err.Error(), "sqlparse:") || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("rendered error %q", err)
	}
}

func TestLexStrings(t *testing.T) {
	toks, err := lex("'hello world' 'a'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokString || toks[0].text != "hello world" {
		t.Fatalf("token %+v", toks[0])
	}
	if toks[1].text != "a" {
		t.Fatalf("token %+v", toks[1])
	}
	if _, err := lex("'unterminated"); err == nil {
		t.Fatal("unterminated string accepted")
	}
}
