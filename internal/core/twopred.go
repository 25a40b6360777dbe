package core

import (
	"fmt"

	"repro/internal/stats"
)

// The Section 5 / Appendix 10.7.2 pipeline for conjunctions of two
// expensive predicates is §4's with joint cells and per-group actions: the
// one Sampler evaluates both predicates on each sampled row, the
// margin-tightened planning step below reads the sample's joint cells and
// picks one of five actions per group (PlanTwoPredicates, extensions.go),
// and the coin executor runs the actions as strategies whose coins land at
// 0 or 1 (TwoPredStrategy). The engine composes the three as its
// conj-sample → conj-solve → conj-exec stages.

// twoPredRows is each action as a row of the coin executor: retrieve with
// probability R, evaluate with probability E, and the span of predicates
// an evaluated row must pass. Evaluating both runs f2, in row order, only
// on the rows f1 kept, so f2 is never charged for a row f1 rejected.
var twoPredRows = [...]struct {
	r, e float64
	span Span
}{
	TPDiscard:      {0, 0, Span{}},
	TPAssumeBoth:   {1, 0, Span{}},
	TPEval1Assume2: {1, 1, Span{0, 1}},
	TPAssume1Eval2: {1, 1, Span{1, 2}},
	TPEvalBoth:     {1, 1, Span{0, 2}},
}

// TwoPredStrategy turns per-group actions into the coin executor's input:
// a strategy of (R, E) rows and the span of f1, f2 each group's evaluated
// rows need (ExecuteSpansParallelCtx over the two meters).
func TwoPredStrategy(acts []TwoPredAction) (Strategy, []Span, error) {
	s, spans := NewStrategy(len(acts)), make([]Span, len(acts))
	for i, a := range acts {
		if int(a) >= len(twoPredRows) {
			return Strategy{}, nil, fmt.Errorf("core: invalid action %v for group %d", a, i)
		}
		row := twoPredRows[a]
		s.R[i], s.E[i], spans[i] = row.r, row.e, row.span
	}
	return s, spans, nil
}

// PlanTwoPredicatesFromSamples is the §5 planning step between joint
// sampling and execution: per-group joint cells from a two-predicate
// Sampler's outcomes, each the mean of one uniform Dirichlet posterior over
// the four outcomes — (k+1)/(f+4) for k of f sampled rows, with k read
// from Results.Trues() and Pos[j] − Results.Trues() — then
// PlanTwoPredicates under constraints tightened by Hoeffding margins, so the
// expectation-level plan carries a probabilistic guarantee. It always
// returns one action per group: when the margins push the tightened problem
// out of feasibility, evaluating both predicates everywhere still satisfies
// the user's real constraints, and that is the plan.
func PlanTwoPredicatesFromSamples(groups []Group, samples []SampleOutcome, cons Constraints, cost CostModel) []TwoPredAction {
	infos := make([]TwoPredGroup, len(groups))
	total := 0
	expCorrect := 0.0
	for i, g := range groups {
		s, both := samples[i], samples[i].Results.Trues()
		f := float64(s.Results.Len() + 4)
		total += len(g.Rows)
		infos[i] = TwoPredGroup{
			Size:  len(g.Rows),
			Both:  float64(both+1) / f,
			Only1: float64(s.Pos[0]-both+1) / f,
			Only2: float64(s.Pos[1]-both+1) / f,
		}
		expCorrect += float64(len(g.Rows)) * infos[i].Both
	}
	// Shift α and β by the relative Hoeffding deviations so the realized
	// precision/recall concentrate above the user's bounds.
	tight := cons
	if expCorrect > 1 {
		n := float64(total)
		tight.Beta = stats.Clamp01(cons.Beta + stats.RecallMargin(n, cons.Beta, cons.Rho)/expCorrect)
		tight.Alpha = stats.Clamp01(cons.Alpha + stats.PrecisionMargin(n, cons.Rho)/expCorrect)
	}
	acts, _, err := PlanTwoPredicates(infos, tight, cost)
	if err != nil {
		acts = make([]TwoPredAction, len(groups))
		for i := range acts {
			acts[i] = TPEvalBoth
		}
	}
	return acts
}
