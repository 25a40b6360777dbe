package sqlparse

import (
	"strings"
	"testing"
)

// FuzzParse drives the lexer and parser with arbitrary input: any input
// may be rejected, but none may panic, and accepted statements must
// satisfy the parser's own invariants (at least one UDF predicate, every one
// named, errors carry positions inside the input).
//
// CI runs this with a short budget (-fuzz=FuzzParse -fuzztime=20s); the
// seed corpus covers every clause of the dialect.
func FuzzParse(f *testing.F) {
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
		"SELECT * FROM t WHERE grade = 'A' AND f(x) = 0",
		"SELECT * FROM t WHERE f(x) = 1 AND grade = 'A' AND g(y) = 0 WITH RECALL 0.8 GROUP ON grade",
		"SELECT * FROM t WHERE a = 1 AND f(x) = 1 AND g(y) = 1 AND b = 'B' AND h(z) = 0",
		"SELECT * FROM t WHERE f(x) = 1 AND g(y) = 0 AND amount = 5000 AND h(z) = 1 AND f(y) = 1 WITH PRECISION 0.8",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil {
			var perr *Error
			if errorsAs(err, &perr) {
				if perr.Line < 1 || perr.Col < 1 {
					t.Fatalf("non-positive error position %d:%d for %q", perr.Line, perr.Col, input)
				}
				if perr.Line > 1+strings.Count(input, "\n") {
					t.Fatalf("error line %d beyond input %q", perr.Line, input)
				}
			}
			return
		}
		if len(stmt.Query.Predicates) == 0 {
			t.Fatalf("accepted statement without UDF predicate: %q → %+v", input, stmt.Query)
		}
		for _, c := range stmt.Query.Predicates {
			if c.UDFName == "" || c.UDFArg == "" {
				t.Fatalf("accepted unnamed predicate: %q → %+v", input, stmt.Query)
			}
		}
		if err := stmt.Query.Validate(); err != nil {
			t.Fatalf("accepted statement fails validation: %q → %v", input, err)
		}
	})
}
