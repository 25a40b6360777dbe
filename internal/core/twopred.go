package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/exec"
	"repro/internal/stats"
)

// Execution and estimation for conjunctions of two expensive predicates
// (Section 5 / Appendix 10.7.2). The expectation-level planner lives in
// extensions.go (PlanTwoPredicates); sampling is the N-ary joint sampler
// of conjunction.go at N=2, and evaluation its Waves. This file adds the
// deterministic executor for the five per-group actions and the
// margin-tightened planning step over joint samples; the engine composes
// the three as its conj-sample → conj-solve → conj-exec stages.

// TwoPredExecResult is the outcome of executing a two-predicate plan.
type TwoPredExecResult struct {
	Output    []int
	Retrieved int
	// Evaluated1 / Evaluated2 count the UDF calls issued per predicate
	// during execution (sampling excluded).
	Evaluated1, Evaluated2 int
	Cost                   float64
}

// ExecuteTwoPredicatesParallelCtx runs the per-group actions. Rows jointly
// sampled (samples is the N=2 output of SampleConjunctionParallelCtx, or
// nil) are resolved from their recorded outcomes at no extra cost: they are
// returned iff both predicates held.
//
// Action semantics per remaining tuple:
//
//	TPDiscard       skip
//	TPAssumeBoth    retrieve, return
//	TPEval1Assume2  retrieve, evaluate f1, return iff f1
//	TPAssume1Eval2  retrieve, evaluate f2, return iff f2
//	TPEvalBoth      retrieve, evaluate f1; if it passes, evaluate f2;
//	                return iff both
//
// Each action is the span of waves its rows need — assume both: none,
// evaluate f1: [0,1), evaluate f2: [1,2), evaluate both: [0,2) — and one
// Waves run over m1 then m2, fanned across up to `parallelism` workers,
// evaluates them: f2 runs, in row order, on the evaluate-f2 rows and the
// evaluate-both rows f1 kept, so f2 is never charged for a row f1 rejected.
// A cancel returns ctx.Err() and an empty result.
func ExecuteTwoPredicatesParallelCtx(ctx context.Context, groups []Group, acts []TwoPredAction, samples []ConjSample, m1, m2 *Meter, cost CostModel, parallelism int) (TwoPredExecResult, error) {
	if len(acts) != len(groups) {
		return TwoPredExecResult{}, fmt.Errorf("core: %d actions for %d groups", len(acts), len(groups))
	}
	if samples != nil && len(samples) != len(groups) {
		return TwoPredExecResult{}, fmt.Errorf("core: %d samples for %d groups", len(samples), len(groups))
	}
	var res TwoPredExecResult

	// Plan: every returned candidate with the span of waves it needs.
	var rows []int
	var need []Span
	for gi, g := range groups {
		var span Span
		switch acts[gi] {
		case TPDiscard, TPAssumeBoth:
		case TPEval1Assume2:
			span = Span{0, 1}
		case TPAssume1Eval2:
			span = Span{1, 2}
		case TPEvalBoth:
			span = Span{0, 2}
		default:
			return TwoPredExecResult{}, fmt.Errorf("core: invalid action %v for group %d", acts[gi], gi)
		}
		var sampled map[int][]bool
		if samples != nil {
			sampled = samples[gi].Results
		}
		for _, row := range g.Rows {
			if v, ok := sampled[row]; ok {
				if v[0] && v[1] {
					rows, need = append(rows, row), append(need, Span{})
				}
				continue
			}
			if acts[gi] != TPDiscard {
				res.Retrieved++
				rows, need = append(rows, row), append(need, span)
			}
		}
	}

	w := Waves{Meters: []*Meter{m1, m2}, Pool: exec.NewPool(parallelism)}
	out, err := w.Run(ctx, rows, need)
	if err != nil {
		return TwoPredExecResult{}, err
	}
	// Copied out of scratch sized to every candidate (see ExecuteParallelCtx).
	res.Output, res.Evaluated1, res.Evaluated2 = slices.Clone(out), w.Evaluated[0], w.Evaluated[1]
	res.Cost = cost.Retrieve*float64(res.Retrieved) +
		cost.Evaluate*float64(res.Evaluated1+res.Evaluated2)
	return res, nil
}

// PlanTwoPredicatesFromSamples is the §5 planning step between joint
// sampling and execution: per-group joint cells from the joint samples (the
// N=2 output of SampleConjunctionParallelCtx), each the mean of one uniform
// Dirichlet posterior over the four outcomes — (k+1)/(f+4) for k of f
// sampled rows, with k read from PosAll and Pos[j] − PosAll — then
// PlanTwoPredicates under constraints tightened by Hoeffding margins, so the
// expectation-level plan carries a probabilistic guarantee. It always
// returns one action per group: when the margins push the tightened problem
// out of feasibility, evaluating both predicates everywhere still satisfies
// the user's real constraints, and that is the plan.
func PlanTwoPredicatesFromSamples(groups []Group, samples []ConjSample, cons Constraints, cost CostModel) []TwoPredAction {
	infos := make([]TwoPredGroup, len(groups))
	total := 0
	expCorrect := 0.0
	for i, g := range groups {
		s := samples[i]
		f := float64(len(s.Results) + 4)
		total += len(g.Rows)
		infos[i] = TwoPredGroup{
			Size:  len(g.Rows),
			Both:  float64(s.PosAll+1) / f,
			Only1: float64(s.Pos[0]-s.PosAll+1) / f,
			Only2: float64(s.Pos[1]-s.PosAll+1) / f,
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
