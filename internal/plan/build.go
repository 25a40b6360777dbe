package plan

import (
	"fmt"
	"strings"
)

// scanChain starts the chain: the scan, then the filter when there are cheap
// filters. The filter's estimate is exact: the engine counted the rows its
// posting lists keep.
func (s Spec) scanChain() Chain {
	q := s.Query
	scan := &Node{Op: OpScan, Column: q.Table, EstRows: s.Rows,
		Detail: []Attr{{"table", q.Table}}}
	if len(q.Filters) == 0 {
		return Chain{scan}
	}
	fs := make([]string, len(q.Filters))
	for i, f := range q.Filters {
		fs[i] = fmt.Sprintf("%s = %q", f.Column, f.Value)
	}
	return Chain{scan, &Node{
		Op:      OpFilter,
		EstRows: s.FilteredRows,
		Detail:  []Attr{{"predicates", strings.Join(fs, " AND ")}},
	}}
}

// Physical shapes a spec into the physical chain the engine executes, one
// rewrite rule per statement shape, each appending its stages and finisher
// to the scan (and filter):
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
func Physical(s Spec) (Chain, error) {
	q := s.Query
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if want := len(q.Predicates); len(s.EvalCosts) != want {
		return nil, fmt.Errorf("plan: %d predicate costs for %d predicates", len(s.EvalCosts), want)
	}
	c := s.scanChain()
	switch {
	case q.Join != nil:
		return s.physicalJoin(c), nil
	case len(q.Predicates) > 1:
		return s.physicalConjunction(c), nil
	default:
		return s.physicalSelect(c), nil
	}
}

func (s Spec) physicalSelect(c Chain) Chain {
	q, n := s.Query, s.FilteredRows
	if q.Approx == nil {
		return append(c, &Node{
			Op:      OpExactEval,
			EstRows: n,
			EstCost: float64(n) * s.perRow(),
			Detail:  []Attr{{"predicate", q.Predicates[0].String()}},
		})
	}
	sampleRows := s.estSampleRows(n)
	ap := q.Approx
	solve := &Node{Op: OpSolve, Mode: ModeConstrained,
		Detail: []Attr{{"objective", fmt.Sprintf("min cost s.t. α=%g β=%g ρ=%g", ap.Precision, ap.Recall, ap.Probability)}}}
	if q.Budget > 0 {
		solve.Mode = ModeBudget
		solve.Detail = []Attr{{"objective", fmt.Sprintf("max recall s.t. α=%g ρ=%g cost≤%g", ap.Precision, ap.Probability, q.Budget)}}
	}
	return append(c,
		s.groupResolve(),
		&Node{
			Op:      OpSample,
			EstRows: sampleRows,
			EstCost: float64(sampleRows) * s.perRow(),
			Detail:  []Attr{{"allocator", fmt.Sprintf("two-third-power num=%.3g", s.sampleNum())}},
		},
		solve,
		&Node{
			Op:          OpProbEval,
			EstRows:     n,
			EstCost:     float64(n-sampleRows) * s.perRow(),
			CostIsBound: true,
			Detail:      []Attr{{"strategy", "per-group retrieve/evaluate coins"}},
		},
		merge())
}

func (s Spec) physicalConjunction(c Chain) Chain {
	q, n := s.Query, s.FilteredRows
	preds := q.Predicates
	if q.Approx == nil {
		return append(c, &Node{
			Op:          OpConjWaves,
			Mode:        ModeQueryOrder,
			EstRows:     n,
			EstCost:     float64(n) * s.perRowAll(),
			CostIsBound: true,
			Detail: []Attr{
				{"order", predList(preds)},
				{"short-circuit", "each wave evaluates only prior survivors"},
			},
		})
	}
	sampleRows := s.estSampleRows(n)
	conjSample := &Node{
		Op:      OpConjSample,
		EstRows: sampleRows,
		EstCost: float64(sampleRows) * s.perRowAll(),
		Detail:  []Attr{{"fused", fmt.Sprintf("all %d predicates per sampled row", len(preds))}},
	}
	if len(preds) == 2 {
		return append(c,
			s.groupResolve(),
			conjSample,
			&Node{Op: OpConjSolve,
				Detail: []Attr{{"actions", "discard | assume-both | eval-f1 | eval-f2 | eval-both (§5)"}}},
			&Node{
				Op:          OpConjExec,
				EstRows:     n,
				EstCost:     float64(n-sampleRows) * s.perRowAll(),
				CostIsBound: true,
			},
			merge())
	}
	// N ≥ 3: sampled selectivities only order the short-circuit waves; the
	// answer itself is exact, and the waves emit in base-table order, so
	// (like the exact shape) there is nothing left to merge.
	if q.GroupOn != "" && q.GroupOn != VirtualColumn {
		c = append(c, s.groupResolve())
	}
	return append(c, conjSample, &Node{
		Op:          OpConjWaves,
		Mode:        ModeGreedyOrder,
		EstRows:     n,
		EstCost:     float64(n-sampleRows) * s.perRowAll(),
		CostIsBound: true,
		Detail: []Attr{
			{"order", "cheapest-first by sampled cost/(1−selectivity)"},
			{"short-circuit", "each wave evaluates only prior survivors"},
		},
	})
}

func (s Spec) physicalJoin(c Chain) Chain {
	join, ap := s.Query.Join, s.Query.Approx
	n := s.FilteredRows
	sampleRows := s.estSampleRows(n)
	return append(c,
		s.groupResolve(),
		&Node{
			Op:      OpJoinGroup,
			Column:  join.LeftKey,
			EstRows: n,
			Detail: []Attr{
				{"weights", fmt.Sprintf("join multiplicity of %s in %s.%s (%d rows)", join.LeftKey, join.Table, join.RightKey, s.JoinRows)},
			},
		},
		&Node{
			Op:      OpSample,
			EstRows: sampleRows,
			EstCost: float64(sampleRows) * s.perRow(),
			Detail:  []Attr{{"allocator", fmt.Sprintf("two-third-power num=%.3g", s.sampleNum())}},
		},
		&Node{Op: OpSolve, Mode: ModeJoinWeight,
			Detail: []Attr{{"objective", fmt.Sprintf("min cost s.t. join-weighted α=%g β=%g ρ=%g", ap.Precision, ap.Recall, ap.Probability)}}},
		&Node{
			Op:          OpProbEval,
			EstRows:     n,
			EstCost:     float64(n-sampleRows) * s.perRow(),
			CostIsBound: true,
			Detail:      []Attr{{"strategy", "per-subgroup retrieve/evaluate coins"}},
		},
		merge())
}

// groupResolve builds the group-resolve node for the spec's GroupOn.
func (s Spec) groupResolve() *Node {
	rows := s.FilteredRows
	n := &Node{Op: OpGroupResolve, EstRows: rows}
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

// merge is the finisher of every blocking chain.
func merge() *Node {
	return &Node{Op: OpMerge, Detail: []Attr{{"output", "row ids, ascending"}}}
}

func predList(preds []Conjunct) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}
