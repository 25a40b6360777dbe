package core

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/stats"
)

// This file implements query execution (the "Execution" step of
// Sections 3.2/3.3): given a strategy, flip a coin per tuple to decide
// retrieval, then another to decide evaluation; retrieved-but-unevaluated
// tuples are returned as-is, evaluated tuples are returned only when the
// UDF accepts them. Tuples already evaluated during sampling are returned
// (or dropped) according to their known value at no extra cost.
//
// Execution is split into two phases so the expensive UDF calls can fan
// out across goroutines without perturbing determinism: a sequential PLAN
// phase draws every Bernoulli coin from the RNG in tuple order and emits
// the work-list of rows needing evaluation, then a parallel EVALUATE phase
// runs the UDF over the work-list and merges verdicts back in row order.
// Because the UDF never consumes the RNG, the coin stream — and therefore
// the output — is bit-for-bit identical at every parallelism level.

// SampleOutcome records the sampling phase's work for one group.
type SampleOutcome struct {
	// Results maps sampled row id → UDF outcome.
	Results map[int]bool
	// Positives counts true outcomes (F⁺ₐ).
	Positives int
}

// ExecResult is the outcome of executing a strategy.
type ExecResult struct {
	// Output holds the returned row ids (the approximate query answer).
	Output []int
	// Retrieved counts tuples fetched during execution (excluding sampling).
	Retrieved int
	// Evaluated counts UDF calls made during execution (excluding sampling).
	Evaluated int
	// Cost is the execution cost o_r·Retrieved + o_e·Evaluated.
	Cost float64
}

// execSlot is one potential output position produced by the plan phase:
// either an unconditional emit (evalIdx < 0) or a slot whose inclusion
// depends on the verdict of work-list item evalIdx.
type execSlot struct {
	row     int
	evalIdx int
}

// ExecuteParallelCtx runs the strategy over the groups, fanning UDF calls
// across up to `parallelism` workers (≤ 0 means GOMAXPROCS). samples may
// be nil (no sampling phase) or hold one entry per group; sampled rows are
// not re-retrieved or re-evaluated — their recorded outcome decides
// membership. The RNG drives the per-tuple coins; all draws happen in the
// sequential plan phase, so results are identical at every parallelism
// level. That phase is cheap and always completes, so the RNG is consumed
// identically whether or not the evaluate phase is cancelled; a cancel
// during evaluation returns ctx.Err() and an empty result.
func ExecuteParallelCtx(ctx context.Context, groups []Group, s Strategy, samples []SampleOutcome, meter *Meter, cost CostModel, rng *stats.RNG, parallelism int) (ExecResult, error) {
	if len(groups) != s.Len() {
		return ExecResult{}, fmt.Errorf("core: %d groups but strategy covers %d", len(groups), s.Len())
	}
	if samples != nil && len(samples) != len(groups) {
		return ExecResult{}, fmt.Errorf("core: %d groups but %d sample outcomes", len(groups), len(samples))
	}
	if err := s.Validate(); err != nil {
		return ExecResult{}, err
	}
	var res ExecResult

	// Plan: draw retrieval/evaluation coins for every tuple in order,
	// collecting output slots and the work-list of rows to evaluate.
	var slots []execSlot
	var work []int
	for i, g := range groups {
		ra, ea := s.R[i], s.E[i]
		var sampled map[int]bool
		if samples != nil {
			sampled = samples[i].Results
		}
		condEval := 0.0
		if ra > 0 {
			condEval = ea / ra
		}
		for _, row := range g.Rows {
			if v, ok := sampled[row]; ok {
				// Already paid for during sampling; include iff correct.
				if v {
					slots = append(slots, execSlot{row: row, evalIdx: -1})
				}
				continue
			}
			if !rng.Bernoulli(ra) {
				continue
			}
			res.Retrieved++
			if rng.Bernoulli(condEval) {
				slots = append(slots, execSlot{row: row, evalIdx: len(work)})
				work = append(work, row)
			} else {
				slots = append(slots, execSlot{row: row, evalIdx: -1})
			}
		}
	}

	// Evaluate: fan the expensive calls out, then merge in plan order. A
	// failed evaluation carries verdict false, so failed rows are excluded
	// from the output below without extra bookkeeping.
	verdicts, _, err := meter.EvalRows(ctx, exec.NewPool(parallelism), work)
	if err != nil {
		return ExecResult{}, err
	}
	res.Evaluated = len(work)
	for _, sl := range slots {
		if sl.evalIdx < 0 || verdicts[sl.evalIdx] {
			res.Output = append(res.Output, sl.row)
		}
	}
	res.Cost = cost.Retrieve*float64(res.Retrieved) + cost.Evaluate*float64(res.Evaluated)
	return res, nil
}

// Metrics holds the information-retrieval quality of an output set.
type Metrics struct {
	Precision float64
	Recall    float64
	// OutputSize and TotalCorrect echo the denominators for reporting.
	OutputSize   int
	TotalCorrect int
}

// Satisfies reports whether the metrics meet the constraints. An empty
// output has precision 1 by convention (it contains no incorrect tuples).
func (m Metrics) Satisfies(cons Constraints) (precisionOK, recallOK bool) {
	return m.Precision >= cons.Alpha-1e-12, m.Recall >= cons.Beta-1e-12
}

// ComputeMetrics scores an output set against ground truth. truth must be
// the oracle predicate (uncharged); totalCorrect is |C|, the number of
// correct tuples in the whole relation.
func ComputeMetrics(output []int, truth func(row int) bool, totalCorrect int) Metrics {
	correct := 0
	for _, row := range output {
		if truth(row) {
			correct++
		}
	}
	m := Metrics{OutputSize: len(output), TotalCorrect: totalCorrect}
	if len(output) == 0 {
		m.Precision = 1
	} else {
		m.Precision = float64(correct) / float64(len(output))
	}
	if totalCorrect == 0 {
		m.Recall = 1
	} else {
		m.Recall = float64(correct) / float64(totalCorrect)
	}
	return m
}
