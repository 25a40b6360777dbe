package engine

import (
	"context"

	"repro/internal/core"
	"repro/internal/plan"
)

// The planner layer: queries are lowered into plan.Spec (the query plus
// everything only the engine knows — row counts, the cost model,
// per-predicate costs, any catalog-memoized column choice), shaped into a
// physical operator tree by internal/plan, and executed uniformly by the
// operators in operators.go. Exact, approximate, conjunction and join
// queries differ only in the plan shape they lower to.

// buildSpec lowers a bound statement into the planner's spec. Everything
// is read off the pipeState, so tables, predicates and costs are resolved
// exactly once (by bindStatement) per plan or execution.
func (e *Engine) buildSpec(st *pipeState) plan.Spec {
	q := st.q
	sp := plan.Spec{
		Table:         q.Table,
		Rows:          st.tbl.NumRows(),
		Preds:         make([]plan.Pred, len(st.preds)),
		GroupOn:       q.GroupOn,
		VirtualName:   VirtualColumn,
		Budget:        q.Budget,
		Retrieve:      st.cost.Retrieve,
		LabelFraction: labelFraction,
	}
	for i, p := range st.preds {
		sp.Preds[i] = plan.Pred{UDF: p.spec.UDFName, Arg: p.spec.UDFArg, Want: p.spec.Want, Cost: p.cost}
	}
	for _, f := range q.Filters {
		sp.Filters = append(sp.Filters, plan.Filter{Column: f.Column, Value: f.Value})
	}
	if q.Approx != nil {
		sp.Approx = &plan.Approx{Alpha: q.Approx.Precision, Beta: q.Approx.Recall, Rho: q.Approx.Probability}
		sp.SampleNum = 2.5 * q.Approx.Precision
		if q.GroupOn == "" {
			if col, ok := e.peekMemoColumn(q, st.cost); ok {
				sp.MemoColumn = col
			}
		}
	}
	if q.Join != nil {
		sp.Join = &plan.Join{
			Table:    q.Join.Table,
			Rows:     st.joinTbl.NumRows(),
			LeftKey:  q.Join.LeftKey,
			RightKey: q.Join.RightKey,
		}
	}
	return sp
}

// predCost resolves the effective o_e for one predicate: its UDF's own
// cost when set, the engine-wide default otherwise. (Not costModel(q) —
// that carries the FIRST predicate's override, which must not leak onto
// later conjuncts.)
func (e *Engine) predCost(p Conjunct) float64 {
	if u, err := e.registry.Lookup(p.UDFName); err == nil && u.Cost > 0 {
		return u.Cost
	}
	return e.Cost.Evaluate
}

// peekMemoColumn reports the catalog-memoized §4.4 column choice for the
// query's workload, if one exists (display only — the group-resolve
// operator re-checks at execution time and falls back to discovery when the
// memo went stale).
func (e *Engine) peekMemoColumn(q Query, cost core.CostModel) (string, bool) {
	c := e.Catalog()
	if c == nil {
		return "", false
	}
	return c.ChosenColumn(workloadKey(q, cost))
}

// Plan builds (without executing) the physical operator tree for a query.
func (e *Engine) Plan(q Query) (*plan.Node, error) {
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

// Explain renders the query's physical plan as EXPLAIN text.
func (e *Engine) Explain(q Query) (string, error) {
	n, err := e.Plan(q)
	if err != nil {
		return "", err
	}
	return plan.Format(n), nil
}

// ExplainAnalyzeContext EXECUTES the query and returns the physical plan
// annotated with per-operator measured counts (plan.Actual) alongside the
// result. The count fields are bit-identical at any parallelism; only the
// per-node wall times vary (see plan.ZeroTimings).
func (e *Engine) ExplainAnalyzeContext(ctx context.Context, q Query) (*plan.Node, *Result, error) {
	res, root, err := e.executeStatement(ctx, q, true, nil)
	if err != nil {
		return nil, nil, err
	}
	return root, res, nil
}
