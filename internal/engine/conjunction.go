package engine

import (
	"context"

	"repro/internal/core"
	"repro/internal/plan"
)

// Conjunctions of expensive predicates. Two shapes exist:
//
//   - Exactly two predicates with accuracy bounds run the paper's §5
//     pipeline as three stages: sample both UDFs per group (opConjSample),
//     estimate joint selectivities and plan one of five actions per group
//     (opConjSolve: discard / assume both / evaluate either / evaluate both
//     with short-circuit), execute the actions (opConjExec). This requires
//     an explicit GROUP ON column, like the paper.
//
//   - Every other conjunction runs short-circuit waves (conjWaves, the
//     streaming terminal's per-batch evaluate): each
//     predicate is evaluated only on the survivors of the ones before it.
//     Exact queries keep the predicates in query order; approximate N-ary
//     queries first sample every predicate (opConjSample) and order them
//     greedily cheapest-first by sampled cost/(1−selectivity). The wave
//     answer is exact — rows resolved during sampling are free, and the
//     sampling spend buys the ordering that minimizes wave work.

// opConjSample draws the conjunction's joint sample: all predicates over a
// Two-Third-Power allocation per group (the whole filtered scan counts as
// one group when no GROUP ON was given).
func (e *Engine) opConjSample(ctx context.Context, st *pipeState) (stageOut, error) {
	groups := st.groups
	if groups == nil {
		groups = []core.Group{{Key: "all", Rows: universe(st.tbl, st.subset)}}
	}
	sizes := make([]int, len(groups))
	for i, g := range groups {
		sizes[i] = len(g.Rows)
	}
	targets := core.DefaultAllocator(st.q.Approx.Precision).Allocate(sizes)
	samples, sels, err := core.SampleConjunctionParallelCtx(ctx, groups, targets, st.meters(), st.rng.Split(), e.parallelism())
	if err != nil {
		return stageOut{}, err
	}
	sampled := 0
	for _, s := range samples {
		sampled += len(s.Results)
	}
	st.conjSamples, st.conjSels, st.sampled = samples, sels, sampled
	return stageOut{rows: sampled}, nil
}

// opConjSolve plans the §5 per-group actions from the joint sample.
func (e *Engine) opConjSolve(_ context.Context, st *pipeState) (stageOut, error) {
	st.actions = core.PlanTwoPredicatesFromSamples(st.groups, st.conjSamples, st.q.Approx.Constraints(), st.cost)
	return stageOut{}, nil
}

// opConjExec executes the §5 actions through the predicates' own resilient
// meters: failed rows drop out, the circuit breaker is consulted, and the
// UDF bodies see the query's context. Jointly sampled rows are resolved
// from their recorded outcomes for free.
func (e *Engine) opConjExec(ctx context.Context, st *pipeState) (stageOut, error) {
	res, err := core.ExecuteTwoPredicatesParallelCtx(ctx, st.groups, st.actions, st.conjSamples,
		st.preds[0].meter, st.preds[1].meter, st.cost, e.parallelism())
	if err != nil {
		return stageOut{}, err
	}
	st.output, st.retrieved = res.Output, res.Retrieved
	return stageOut{rows: len(st.output)}, nil
}

// conjWaves prepares the short-circuit waves of the conj-waves terminal.
// The wave order and the free sampled outcomes are fixed here, once, after
// the child chain (including any conj-sample stage) has run, so every batch
// flows through identical waves; rows never interact across batches, and
// the scan never repeats a row, which is why batching leaves calls,
// survivors and counters bit-identical (see core.ConjWaveRunner.Run).
func (e *Engine) conjWaves(st *pipeState, mode string) (batchEval, error) {
	order := make([]int, len(st.preds))
	for i := range order {
		order[i] = i
	}
	var known []map[int]bool
	if mode == plan.ModeGreedyOrder {
		costs := make([]float64, len(st.preds))
		for i, p := range st.preds {
			costs[i] = p.cost
		}
		var err error
		order, err = core.OrderPredicates(costs, st.conjSels)
		if err != nil {
			return nil, err
		}
		known = make([]map[int]bool, len(st.preds))
		for j := range known {
			known[j] = make(map[int]bool)
		}
		for _, s := range st.conjSamples {
			for row, outs := range s.Results {
				for j, v := range outs {
					known[j][row] = v
				}
			}
		}
	}
	runner, err := core.NewConjWaveRunner(order, known, st.meters(), e.parallelism())
	if err != nil {
		return nil, err
	}
	return runner.Run, nil
}

// meters lists the predicates' meters in query order.
func (st *pipeState) meters() []*core.Meter {
	meters := make([]*core.Meter, len(st.preds))
	for i, p := range st.preds {
		meters[i] = p.meter
	}
	return meters
}
