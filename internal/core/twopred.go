package core

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/stats"
)

// Execution and estimation for conjunctions of two expensive predicates
// (Section 5 / Appendix 10.7.2). The expectation-level planner lives in
// extensions.go (PlanTwoPredicates); sampling and evaluation are the N-ary
// conjunction substrate of conjunction.go at N=2. This file adds the
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

// tpKind classifies what a two-predicate output slot still needs.
type tpKind uint8

const (
	tpEmit     tpKind = iota // unconditional output
	tpNeed1                  // output iff f1
	tpNeed2                  // output iff f2
	tpNeedBoth               // output iff f1, then f2 (short-circuit preserved)
)

// tpSlot is one potential output position of the two-predicate executor.
type tpSlot struct {
	row        int
	kind       tpKind
	idx1, idx2 int
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
// The UDF calls are batched and fanned across up to `parallelism` workers.
// Evaluation runs in waves — all needed f1 calls and unconditional f2 calls
// first, then f2 on the f1 survivors of TPEvalBoth groups — so the
// sequential short-circuit accounting (f2 is never charged for rows f1
// rejected) is preserved exactly, as are output order and all counters. A
// cancel in either wave returns ctx.Err() and an empty result.
func ExecuteTwoPredicatesParallelCtx(ctx context.Context, groups []Group, acts []TwoPredAction, samples []ConjSample, udf1, udf2 UDF, cost CostModel, parallelism int) (TwoPredExecResult, error) {
	if len(acts) != len(groups) {
		return TwoPredExecResult{}, fmt.Errorf("core: %d actions for %d groups", len(acts), len(groups))
	}
	if samples != nil && len(samples) != len(groups) {
		return TwoPredExecResult{}, fmt.Errorf("core: %d samples for %d groups", len(samples), len(groups))
	}
	var res TwoPredExecResult

	// Plan: classify every tuple, building the f1 work-list and the
	// unconditional-f2 work-list.
	var slots []tpSlot
	var work1, work2 []int
	for gi, g := range groups {
		act := acts[gi]
		var sampled map[int][]bool
		if samples != nil {
			sampled = samples[gi].Results
		}
		for _, row := range g.Rows {
			if v, ok := sampled[row]; ok {
				if v[0] && v[1] {
					slots = append(slots, tpSlot{row: row, kind: tpEmit})
				}
				continue
			}
			switch act {
			case TPDiscard:
			case TPAssumeBoth:
				res.Retrieved++
				slots = append(slots, tpSlot{row: row, kind: tpEmit})
			case TPEval1Assume2:
				res.Retrieved++
				slots = append(slots, tpSlot{row: row, kind: tpNeed1, idx1: len(work1)})
				work1 = append(work1, row)
			case TPAssume1Eval2:
				res.Retrieved++
				slots = append(slots, tpSlot{row: row, kind: tpNeed2, idx2: len(work2)})
				work2 = append(work2, row)
			case TPEvalBoth:
				res.Retrieved++
				slots = append(slots, tpSlot{row: row, kind: tpNeedBoth, idx1: len(work1)})
				work1 = append(work1, row)
			default:
				return TwoPredExecResult{}, fmt.Errorf("core: invalid action %v for group %d", act, gi)
			}
		}
	}

	// Wave 1: every needed f1 call plus the unconditional f2 calls. Failed
	// resilient evaluations carry verdict false, so failed rows drop out of
	// the output (and, for TPEvalBoth, never reach the f2 wave).
	pool := exec.NewPool(parallelism)
	wave1, _, err := evalWorkLists(ctx, pool, [][]int{work1, work2}, []UDF{udf1, udf2})
	if err != nil {
		return TwoPredExecResult{}, err
	}
	v1, v2 := wave1[0], wave1[1]

	// Wave 2: f2 on the TPEvalBoth rows that survived f1.
	var work2b []int
	for si := range slots {
		sl := &slots[si]
		if sl.kind != tpNeedBoth {
			continue
		}
		if v1[sl.idx1] {
			sl.idx2 = len(work2b)
			work2b = append(work2b, sl.row)
		} else {
			sl.idx2 = -1
		}
	}
	v2b, _, err := EvalRowsResilient(ctx, pool, work2b, udf2)
	if err != nil {
		return TwoPredExecResult{}, err
	}

	res.Evaluated1 = len(work1)
	res.Evaluated2 = len(work2) + len(work2b)
	for _, sl := range slots {
		switch sl.kind {
		case tpEmit:
			res.Output = append(res.Output, sl.row)
		case tpNeed1:
			if v1[sl.idx1] {
				res.Output = append(res.Output, sl.row)
			}
		case tpNeed2:
			if v2[sl.idx2] {
				res.Output = append(res.Output, sl.row)
			}
		case tpNeedBoth:
			if sl.idx2 >= 0 && v2b[sl.idx2] {
				res.Output = append(res.Output, sl.row)
			}
		}
	}
	res.Cost = cost.Retrieve*float64(res.Retrieved) +
		cost.Evaluate*float64(res.Evaluated1+res.Evaluated2)
	return res, nil
}

// PlanTwoPredicatesFromSamples is the §5 planning step between joint
// sampling and execution: per-group Beta-posterior selectivities from the
// joint samples (the N=2 output of SampleConjunctionParallelCtx), then
// PlanTwoPredicates under constraints tightened by Hoeffding margins, so the
// expectation-level plan carries a probabilistic guarantee. It always
// returns one action per group: when the margins push the tightened problem
// out of feasibility, evaluating both predicates everywhere still satisfies
// the user's real constraints, and that is the plan.
func PlanTwoPredicatesFromSamples(groups []Group, samples []ConjSample, cons Constraints, cost CostModel) []TwoPredAction {
	infos := make([]TwoPredGroup, len(groups))
	total := 0
	for i, g := range groups {
		s := samples[i]
		f := len(s.Results)
		total += len(g.Rows)
		infos[i] = TwoPredGroup{
			Size: len(g.Rows),
			Sel1: stats.NewBetaPosterior(s.Pos[0], f-s.Pos[0]).Mean(),
			Sel2: stats.NewBetaPosterior(s.Pos[1], f-s.Pos[1]).Mean(),
		}
	}
	// Shift α and β by the relative Hoeffding deviations so the realized
	// precision/recall concentrate above the user's bounds.
	tight := cons
	n := float64(total)
	if n > 0 {
		expCorrect := 0.0
		for _, g := range infos {
			expCorrect += float64(g.Size) * g.Sel1 * g.Sel2
		}
		if expCorrect > 1 {
			tight.Beta = stats.Clamp01(cons.Beta + stats.RecallMargin(n, cons.Beta, cons.Rho)/expCorrect)
			tight.Alpha = stats.Clamp01(cons.Alpha + stats.PrecisionMargin(n, cons.Rho)/expCorrect)
		}
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
