package plan

import (
	"fmt"
	"strings"
)

// scanChain builds filter → scan (or a bare scan when there are no cheap
// filters). The filter's estimate is exact: the engine counted the rows its
// posting lists keep.
func (s Spec) scanChain() *Node {
	q := s.Query
	scan := &Node{Op: OpScan, Column: q.Table, EstRows: s.Rows,
		Detail: []Attr{{"table", q.Table}}}
	if len(q.Filters) == 0 {
		return scan
	}
	fs := make([]string, len(q.Filters))
	for i, f := range q.Filters {
		fs[i] = fmt.Sprintf("%s = %q", f.Column, f.Value)
	}
	return &Node{
		Op:       OpFilter,
		Children: []*Node{scan},
		EstRows:  s.FilteredRows,
		Detail:   []Attr{{"predicates", strings.Join(fs, " AND ")}},
	}
}

// Physical shapes a spec into the physical operator tree the engine
// executes, one rewrite rule per statement shape:
//
//   - select + exact          → exact-eval
//   - select + approx         → group-resolve · sample · solve · prob-eval · merge
//   - conjunction + exact     → conj-waves (query order)
//   - conjunction + approx, 2 → group-resolve · conj-sample · conj-solve · conj-exec · merge
//   - conjunction + approx, N → [group-resolve ·] conj-sample · conj-waves(greedy)
//   - join + approx           → group-resolve · join-group · sample · solve(weights) · prob-eval · merge
//
// Every node is run by exactly one operator of the engine's pipeline (the
// filter node by the scan it is fused into). The query must pass
// Query.Validate — the one validator, so a shape no rule covers is refused
// here with the same error parsing and binding give.
func Physical(s Spec) (*Node, error) {
	q := s.Query
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if want := len(q.Predicates); len(s.EvalCosts) != want {
		return nil, fmt.Errorf("plan: %d predicate costs for %d predicates", len(s.EvalCosts), want)
	}
	base := s.scanChain() // filter → scan, the pipeline tail
	switch {
	case q.Join != nil:
		return s.physicalJoin(base), nil
	case len(q.Predicates) > 1:
		return s.physicalConjunction(base), nil
	default:
		return s.physicalSelect(base), nil
	}
}

func (s Spec) physicalSelect(base *Node) *Node {
	q, n := s.Query, s.FilteredRows
	if q.Approx == nil {
		return &Node{
			Op:       OpExactEval,
			Children: []*Node{base},
			EstRows:  n,
			EstCost:  float64(n) * s.perRow(),
			Detail:   []Attr{{"predicate", q.Predicates[0].String()}},
		}
	}
	gr := s.groupResolve(base)
	sampleRows := s.estSampleRows(n)
	sample := &Node{
		Op:       OpSample,
		Children: []*Node{gr},
		EstRows:  sampleRows,
		EstCost:  float64(sampleRows) * s.perRow(),
		Detail:   []Attr{{"allocator", fmt.Sprintf("two-third-power num=%.3g", s.sampleNum())}},
	}
	ap := q.Approx
	solve := &Node{Op: OpSolve, Mode: ModeConstrained, Children: []*Node{sample},
		Detail: []Attr{{"objective", fmt.Sprintf("min cost s.t. α=%g β=%g ρ=%g", ap.Precision, ap.Recall, ap.Probability)}}}
	if q.Budget > 0 {
		solve.Mode = ModeBudget
		solve.Detail = []Attr{{"objective", fmt.Sprintf("max recall s.t. α=%g ρ=%g cost≤%g", ap.Precision, ap.Probability, q.Budget)}}
	}
	eval := &Node{
		Op:          OpProbEval,
		Children:    []*Node{solve},
		EstRows:     n,
		EstCost:     float64(n-sampleRows) * s.perRow(),
		CostIsBound: true,
		Detail:      []Attr{{"strategy", "per-group retrieve/evaluate coins"}},
	}
	return s.merge(eval)
}

func (s Spec) physicalConjunction(base *Node) *Node {
	q, n := s.Query, s.FilteredRows
	preds := q.Predicates
	if q.Approx == nil {
		return &Node{
			Op:          OpConjWaves,
			Mode:        ModeQueryOrder,
			Children:    []*Node{base},
			EstRows:     n,
			EstCost:     float64(n) * s.perRowAll(),
			CostIsBound: true,
			Detail: []Attr{
				{"order", predList(preds)},
				{"short-circuit", "each wave evaluates only prior survivors"},
			},
		}
	}
	sampleRows := s.estSampleRows(n)
	conjSample := func(child *Node) *Node {
		return &Node{
			Op:       OpConjSample,
			Children: []*Node{child},
			EstRows:  sampleRows,
			EstCost:  float64(sampleRows) * s.perRowAll(),
			Detail:   []Attr{{"fused", fmt.Sprintf("all %d predicates per sampled row", len(preds))}},
		}
	}
	if len(preds) == 2 {
		solve := &Node{Op: OpConjSolve, Children: []*Node{conjSample(s.groupResolve(base))},
			Detail: []Attr{{"actions", "discard | assume-both | eval-f1 | eval-f2 | eval-both (§5)"}}}
		exec := &Node{
			Op:          OpConjExec,
			Children:    []*Node{solve},
			EstRows:     n,
			EstCost:     float64(n-sampleRows) * s.perRowAll(),
			CostIsBound: true,
		}
		return s.merge(exec)
	}
	// N ≥ 3: sampled selectivities only order the short-circuit waves; the
	// answer itself is exact, and the waves emit in base-table order, so
	// (like the exact shape) there is nothing left to merge.
	child := base
	if q.GroupOn != "" && q.GroupOn != VirtualColumn {
		child = s.groupResolve(base)
	}
	return &Node{
		Op:          OpConjWaves,
		Mode:        ModeGreedyOrder,
		Children:    []*Node{conjSample(child)},
		EstRows:     n,
		EstCost:     float64(n-sampleRows) * s.perRowAll(),
		CostIsBound: true,
		Detail: []Attr{
			{"order", "cheapest-first by sampled cost/(1−selectivity)"},
			{"short-circuit", "each wave evaluates only prior survivors"},
		},
	}
}

func (s Spec) physicalJoin(base *Node) *Node {
	join, ap := s.Query.Join, s.Query.Approx
	gr := s.groupResolve(base)
	jg := &Node{
		Op:       OpJoinGroup,
		Column:   join.LeftKey,
		Children: []*Node{gr},
		EstRows:  s.FilteredRows,
		Detail: []Attr{
			{"weights", fmt.Sprintf("join multiplicity of %s in %s.%s (%d rows)", join.LeftKey, join.Table, join.RightKey, s.JoinRows)},
		},
	}
	n := s.FilteredRows
	sampleRows := s.estSampleRows(n)
	sample := &Node{
		Op:       OpSample,
		Children: []*Node{jg},
		EstRows:  sampleRows,
		EstCost:  float64(sampleRows) * s.perRow(),
		Detail:   []Attr{{"allocator", fmt.Sprintf("two-third-power num=%.3g", s.sampleNum())}},
	}
	solve := &Node{Op: OpSolve, Mode: ModeJoinWeight, Children: []*Node{sample},
		Detail: []Attr{{"objective", fmt.Sprintf("min cost s.t. join-weighted α=%g β=%g ρ=%g", ap.Precision, ap.Recall, ap.Probability)}}}
	eval := &Node{
		Op:          OpProbEval,
		Children:    []*Node{solve},
		EstRows:     n,
		EstCost:     float64(n-sampleRows) * s.perRow(),
		CostIsBound: true,
		Detail:      []Attr{{"strategy", "per-subgroup retrieve/evaluate coins"}},
	}
	return s.merge(eval)
}

// groupResolve builds the group-resolve node for the spec's GroupOn.
func (s Spec) groupResolve(child *Node) *Node {
	rows := s.FilteredRows
	n := &Node{Op: OpGroupResolve, Children: []*Node{child}, EstRows: rows}
	switch groupOn := s.Query.GroupOn; groupOn {
	case "":
		n.Mode = ModeAuto
		labelRows := s.estLabelRows(rows)
		if s.MemoColumn != "" {
			n.Column = s.MemoColumn
			n.Detail = []Attr{
				{"column", s.MemoColumn + " (catalog memo; re-discovered if stale)"},
			}
			return n
		}
		n.Detail = []Attr{{"column", "discovered at runtime (§4.4 column scan)"}}
		n.EstCost = float64(labelRows) * s.perRow()
		n.Detail = append(n.Detail, Attr{"labeling", fmt.Sprintf("≈%d rows", labelRows)})
	case VirtualColumn:
		n.Mode = ModeVirtual
		n.Column = VirtualColumn
		labelRows := s.estLabelRows(rows)
		n.EstCost = float64(labelRows) * s.perRow()
		n.Detail = []Attr{
			{"column", "logistic-regression buckets (§6.3.2)"},
			{"labeling", fmt.Sprintf("≈%d rows", labelRows)},
		}
	default:
		n.Mode = ModePinned
		n.Column = groupOn
		n.Detail = []Attr{{"column", groupOn}}
	}
	return n
}

// merge appends the common sort/assemble tail.
func (s Spec) merge(child *Node) *Node {
	return &Node{Op: OpMerge, Children: []*Node{child},
		Detail: []Attr{{"output", "row ids, ascending"}}}
}

func predList(preds []Conjunct) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}
