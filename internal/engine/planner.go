package engine

import (
	"context"

	"repro/internal/plan"
)

// The planner layer: a bound statement becomes a plan.Spec (the Query plus
// what only the engine knows — row counts, the filtered universe's size,
// per-predicate costs, any catalog-memoized column choice), internal/plan
// shapes it into a physical operator chain, and the operators in
// operators.go execute it uniformly.
// Exact, approximate, conjunction and join queries differ only in the plan
// shape they lower to.

// buildSpec hands a bound statement to the planner. Everything is read off
// the pipeState, so tables, predicates and costs are resolved exactly once
// (by bindStatement) per plan or execution.
func (e *Engine) buildSpec(st *pipeState) plan.Spec {
	_, universe := st.scanRows()
	sp := plan.Spec{
		Query:        st.q,
		Rows:         st.tbl.NumRows(),
		FilteredRows: universe,
		EvalCosts:    make([]float64, len(st.preds)),
	}
	for i, p := range st.preds {
		sp.EvalCosts[i] = p.cost
	}
	if st.q.Approx != nil && st.q.GroupOn == "" {
		// Display only: the group-resolve operator re-checks at execution
		// time and falls back to discovery when the memo went stale.
		sp.MemoColumn, _ = e.peekMemoColumn(st)
	}
	if st.joinTbl != nil {
		sp.JoinRows = st.joinTbl.NumRows()
	}
	return sp
}

// Plan builds (without executing) the physical operator chain for a query;
// plan.Format renders it as EXPLAIN text.
func (e *Engine) Plan(q Query) (plan.Chain, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// The same binder execution uses, so EXPLAIN fails exactly like
	// execution would on unknown tables, UDFs, argument columns, join
	// keys, or a pinned grouping column.
	st, err := e.bindStatement(q)
	if err != nil {
		return nil, err
	}
	return plan.Physical(e.buildSpec(st))
}

// ExplainAnalyzeContext EXECUTES the query and returns the physical chain
// annotated with per-operator measured counts (plan.Actual) alongside the
// result. The count fields are bit-identical at any parallelism; only the
// per-node wall times vary (see plan.ZeroTimings).
func (e *Engine) ExplainAnalyzeContext(ctx context.Context, q Query) (plan.Chain, *Result, error) {
	res, chain, err := e.executeStatement(ctx, q, true, nil)
	if err != nil {
		return nil, nil, err
	}
	return chain, res, nil
}
