package engine

import (
	"context"
	"fmt"

	"repro/internal/table"
)

// SelectJoinQuery is the Section 5 "single predicate with join" extension:
//
//	SELECT * FROM T WHERE udf(arg) = 1 ... JOIN T2 ON T.LeftKey = T2.RightKey
//
// Tuples of T matching many T2 tuples count with that multiplicity in the
// join result, so the optimizer prefers verifying them even at lower
// selectivity.
type SelectJoinQuery struct {
	Query
	JoinTable string
	LeftKey   string
	RightKey  string
}

// ExecuteSelectJoinContext plans per (group, join-key-weight-class)
// subgroups with join-multiplicity weights and executes the resulting
// strategy (same cancellation contract as ExecuteContext). The output rows
// are row ids of the base table (joined expansion is left to the caller);
// guarantees are at the join-result level. The join runs through the same
// planner pipeline as every other shape: group-resolve → join-group →
// sample → solve(join-weights) → prob-eval → merge (see operators.go).
func (e *Engine) ExecuteSelectJoinContext(ctx context.Context, q SelectJoinQuery) (*Result, error) {
	res, _, err := e.executeStatement(ctx, q.Query, &q, false, nil)
	return res, err
}

// JoinMultiplicities is a helper exposing the per-key match counts of a
// join table (used by examples and tests).
func JoinMultiplicities(joinTbl *table.Table, key string) (map[string]int, error) {
	col := joinTbl.ColumnByName(key)
	if col == nil {
		return nil, fmt.Errorf("engine: table %q has no column %q", joinTbl.Name(), key)
	}
	mult := make(map[string]int)
	for i := 0; i < joinTbl.NumRows(); i++ {
		mult[col.StringAt(i)]++
	}
	return mult, nil
}
