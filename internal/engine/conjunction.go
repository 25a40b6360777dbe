package engine

import (
	"context"
	"maps"

	"repro/internal/core"
	"repro/internal/plan"
)

// Conjunctions of expensive predicates. Two shapes exist:
//
//   - Exactly two predicates with accuracy bounds run the paper's §5
//     pipeline as three stages: sample both UDFs per group (conj-sample,
//     the one sampling stage opSample), estimate joint selectivities and
//     plan one of five actions per group (opConjSolve: discard / assume
//     both / evaluate either / evaluate both with short-circuit), execute
//     the actions (conj-exec, the one coin-executor stage opProbEval). This
//     requires an explicit GROUP ON column, like the paper.
//
//   - Every other conjunction runs short-circuit waves in the streaming
//     terminal (prepareWaves, evalBatch): each predicate is evaluated
//     only on the survivors of the ones before it.
//     Exact queries keep the predicates in query order; approximate N-ary
//     queries first sample every predicate (conj-sample) and order them
//     greedily cheapest-first by sampled cost/(1−selectivity). The wave
//     answer is exact — rows resolved during sampling are free, and the
//     sampling spend buys the ordering that minimizes wave work.

// opConjSolve plans the §5 per-group actions from the joint sample, as the
// coin executor's strategy and spans.
func (e *Engine) opConjSolve(_ context.Context, st *pipeState) (stageOut, error) {
	acts := core.PlanTwoPredicatesFromSamples(st.groups, st.samples, st.q.Approx.Constraints(), st.cost)
	var err error
	st.strategy, st.spans, err = core.TwoPredStrategy(acts)
	return stageOut{}, err
}

// prepareWaves fixes the streaming terminal's waves once, after the blocking
// stages (including any conj-sample stage) have run: one wave per predicate in
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
		order, err := core.OrderPredicates(costs, st.sels)
		if err != nil {
			return err
		}
		for w, j := range order {
			meters[w] = st.preds[j].meter
		}
		o.sampled = make(map[int]bool)
		for _, s := range st.samples {
			maps.Copy(o.sampled, s.Results)
		}
	}
	o.waves.Meters = meters
	return nil
}

// evalBatch pushes one batch through the waves and returns its survivors in
// batch order (valid until the next call) and how many of its rows had to be
// retrieved: all of them but those the joint sample decided.
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
