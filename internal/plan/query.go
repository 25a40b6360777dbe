package plan

import (
	"fmt"

	"repro/internal/core"
)

// Approx carries the accuracy contract of an approximate query.
type Approx struct {
	Precision   float64 // α
	Recall      float64 // β
	Probability float64 // ρ
}

// Constraints converts to the core representation.
func (a Approx) Constraints() core.Constraints {
	return core.Constraints{Alpha: a.Precision, Beta: a.Recall, Rho: a.Probability}
}

// Query is the statement
//
//	SELECT cols FROM table [JOIN t2 ON table.k = t2.k]
//	WHERE udf₁(arg₁) = want₁ [AND udf₂(arg₂) = want₂ …] [AND col = literal …]
//	[WITH PRECISION α RECALL β PROBABILITY ρ] [GROUP ON col] [BUDGET b]
//
// It is the one statement value every layer passes along, declared here —
// below the parser and the engine — so both can name it: the parser fills
// it in, Validate checks it, the engine binds it, and Spec carries it to
// the rewrite rules.
type Query struct {
	// Table to select from.
	Table string
	// Join, when non-nil, is the Section 5 selection-before-join clause (see
	// Join).
	Join *Join
	// Columns to project; empty or ["*"] means all.
	Columns []string
	// Predicates are the expensive predicates, ANDed, first predicate first.
	// One is the plain selection. Exactly two with Approx set run the paper's
	// five-action two-predicate optimizer (Section 5), which requires an
	// explicit GroupOn column; three or more sample every predicate, order
	// them cheapest-first and evaluate in short-circuit waves. Without Approx,
	// conjunctions of any arity evaluate exactly, each wave touching only
	// prior survivors.
	Predicates []Conjunct
	// Approx, when non-nil, allows approximate evaluation; nil demands the
	// exact answer (evaluate every tuple).
	Approx *Approx
	// GroupOn optionally pins the correlated column; empty lets the engine
	// discover one (Section 4.4), and the special value VirtualColumn
	// requests the logistic-regression virtual column of Section 6.3.2.
	GroupOn string
	// Budget, when positive, switches to the fixed-budget objective:
	// maximize recall subject to the precision bound and cost ≤ Budget.
	Budget float64
	// Filters are cheap equality predicates evaluated before any UDF work.
	Filters []Filter
}

// VirtualColumn is the GroupOn value requesting a logistic-regression
// virtual column (Section 6.3.2).
const VirtualColumn = "virtual"

// Join is the Section 5 "single predicate with join" clause:
//
//	SELECT * FROM T JOIN Table ON T.LeftKey = Table.RightKey WHERE udf(arg) = 1 ...
//
// Tuples of T matching many Table tuples count with that multiplicity in
// the join result, so the optimizer prefers verifying them even at lower
// selectivity: the plan splits each group into (group, multiplicity)
// subgroups and solves with join-multiplicity weights (group-resolve →
// join-group → sample → solve(join-weights) → prob-eval → merge). The
// output rows are row ids of the base table (joined expansion is left to
// the caller); the accuracy guarantees hold at the join-result level.
type Join struct {
	Table    string
	LeftKey  string
	RightKey string
}

// Conjunct is one expensive predicate UDFName(UDFArg) = Want; Want is the
// required outcome (true for "= 1").
type Conjunct struct {
	UDFName string
	UDFArg  string
	Want    bool
}

// String renders the predicate the way EXPLAIN prints it: udf(arg)=1.
func (c Conjunct) String() string {
	w := 0
	if c.Want {
		w = 1
	}
	return fmt.Sprintf("%s(%s)=%d", c.UDFName, c.UDFArg, w)
}

// Filter is a cheap (non-UDF) equality predicate. Per Section 5, cheap
// predicates execute first: the engine scans the column store, keeps only
// matching rows, and runs the expensive-predicate machinery on that
// subset. Values compare against the canonical string rendering of the
// cell (so "42", "42.5" and "A" all work).
type Filter struct {
	Column string
	Value  string
}

// FailurePolicy decides what a statement does with rows whose UDF
// invocation ultimately fails (after retries, or denied by an open
// breaker). It is a setting of the engine, not of a statement.
type FailurePolicy string

const (
	// FailOnError (the default) surfaces the first failure as a query error
	// once execution finishes; no partial result is returned. Failed rows
	// are still excluded from all evidence, so the engine stays usable.
	FailOnError FailurePolicy = "fail"
	// DegradeFailed excludes failed rows from the result; the failure
	// counters in Stats are populated, and a result that excluded any is
	// marked Stats.Degraded, so clients can tell a partial answer from a
	// complete one.
	DegradeFailed FailurePolicy = "degrade"
)

// ParseFailurePolicy validates a policy string ("" means FailOnError).
func ParseFailurePolicy(s string) (FailurePolicy, error) {
	switch FailurePolicy(s) {
	case "":
		return FailOnError, nil
	case FailOnError, DegradeFailed:
		return FailurePolicy(s), nil
	default:
		return "", fmt.Errorf("engine: unknown failure policy %q (want fail or degrade)", s)
	}
}

// Validate performs the static checks — well-formed clauses, and shapes no
// rewrite rule covers — with the same errors whether the query is parsed,
// planned (EXPLAIN) or executed. Table, column and UDF existence is checked
// when the engine binds the statement. (The messages keep the "engine:"
// prefix they have always carried.)
func (q Query) Validate() error {
	if q.Table == "" {
		return fmt.Errorf("engine: query without table")
	}
	n := len(q.Predicates)
	if n == 0 {
		return fmt.Errorf("engine: query without UDF predicate")
	}
	for _, p := range q.Predicates {
		if p.UDFName == "" || p.UDFArg == "" {
			return fmt.Errorf("engine: empty UDF predicate")
		}
	}
	if q.Approx != nil {
		c := q.Approx.Constraints()
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if q.Budget < 0 {
		return fmt.Errorf("engine: negative budget %v", q.Budget)
	}
	if q.Budget > 0 && q.Approx == nil {
		return fmt.Errorf("engine: BUDGET requires WITH PRECISION/RECALL/PROBABILITY")
	}
	if n > 1 && q.Budget > 0 {
		return fmt.Errorf("engine: BUDGET is not supported with AND conjunctions")
	}
	if q.Join != nil && q.Budget > 0 {
		return fmt.Errorf("engine: BUDGET is not supported with JOIN")
	}
	pinned := q.GroupOn != "" && q.GroupOn != VirtualColumn
	if n == 2 && q.Approx != nil && !pinned {
		return fmt.Errorf("engine: AND conjunctions require an explicit GROUP ON column")
	}
	if n > 2 && q.Approx != nil && q.GroupOn == VirtualColumn {
		return fmt.Errorf("engine: N-ary AND conjunctions do not support the virtual column")
	}
	if q.Join != nil {
		if q.Approx == nil {
			return fmt.Errorf("engine: select-join requires WITH PRECISION/RECALL/PROBABILITY")
		}
		if !pinned {
			return fmt.Errorf("engine: select-join requires an explicit GROUP ON column")
		}
		if n > 1 {
			return fmt.Errorf("engine: select-join does not support AND conjunctions")
		}
	}
	return nil
}
