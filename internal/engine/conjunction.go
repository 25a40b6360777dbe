package engine

import (
	"context"
	"slices"

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
//   - Every other conjunction runs short-circuit waves in the streaming
//     terminal (prepareWaves, evalBatch): each predicate is evaluated
//     only on the survivors of the ones before it.
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

// prepareWaves fixes the streaming terminal's waves once, after the child
// chain (including any conj-sample stage) has run: one wave per predicate in
// query order — exact-eval is the one-wave case — reordered cheapest-first
// by the sampled selectivities under greedy, where the rows the joint
// sample decided are also free. Rows never interact across batches and the
// scan never repeats a row, which is why batching leaves calls, survivors
// and counters bit-identical (see core.Waves).
func (o *evalOp) prepareWaves() error {
	st := o.st
	meters := st.meters()
	if o.node.Mode == plan.ModeGreedyOrder {
		costs := make([]float64, len(st.preds))
		for i, p := range st.preds {
			costs[i] = p.cost
		}
		order, err := core.OrderPredicates(costs, st.conjSels)
		if err != nil {
			return err
		}
		for w, j := range order {
			meters[w] = st.preds[j].meter
		}
		o.sampled = make(map[int]bool)
		for _, s := range st.conjSamples {
			for row, outs := range s.Results {
				o.sampled[row] = !slices.Contains(outs, false)
			}
		}
	}
	o.waves.Meters = meters
	return nil
}

// evalBatch pushes one pulled batch through the waves and returns its
// survivors in batch order (valid until the next call) and how many of its
// rows had to be retrieved: all of them but those the joint sample decided.
func (o *evalOp) evalBatch(ctx context.Context, rows []int) ([]int, int, error) {
	if o.sampled == nil {
		out, err := o.waves.Run(ctx, rows, nil)
		return out, len(rows), err
	}
	every := core.Span{To: int32(len(o.waves.Meters))}
	o.rows, o.need = o.rows[:0], o.need[:0]
	retrieved := 0
	for _, row := range rows {
		pass, ok := o.sampled[row]
		switch {
		case !ok:
			retrieved++
			o.rows, o.need = append(o.rows, row), append(o.need, every)
		case pass:
			o.rows, o.need = append(o.rows, row), append(o.need, core.Span{})
		}
	}
	out, err := o.waves.Run(ctx, o.rows, o.need)
	return out, retrieved, err
}

// meters lists the predicates' meters in query order.
func (st *pipeState) meters() []*core.Meter {
	meters := make([]*core.Meter, len(st.preds))
	for i, p := range st.preds {
		meters[i] = p.meter
	}
	return meters
}
