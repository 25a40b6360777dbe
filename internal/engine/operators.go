package engine

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/resilience"
	"repro/internal/stats"
	"repro/internal/table"
)

// Physical-operator state and the blocking operator bodies. The planner
// (planner.go + internal/plan) shapes every query into a chain of physical
// operators; the executor (batch.go) runs each blocking body below once, in
// chain order leaf first, each reading and extending the shared pipeline
// state, before its one batch loop. The determinism contract lives in that
// order and in the keys: every stage draws under its own sub-key of the
// statement's key, meters charge the same rows, and Stats are assembled by
// the one formula (pipeState.finish) whatever the shape, parallelism or
// batch size.

// resolvedPred is one expensive predicate bound to the engine: its row
// invoker (which counts retries), its metered (resilient, usually
// cache-backed) evaluator — the record of its charged calls and failed
// rows — its effective o_e, and its circuit breaker with the trip count it
// had at bind, so Stats report the trips THIS statement caused, not the
// engine-lifetime total.
type resolvedPred struct {
	spec     Conjunct
	inv      *rowInvoker
	meter    *core.Meter
	cost     float64
	breaker  *resilience.Breaker
	tripBase int64
}

// pipeState is the shared state the stages of one statement read and extend.
type pipeState struct {
	q   Query
	tbl *table.Table
	// cost is the statement's cost model: core.DefaultCost's o_r, and the
	// first predicate's o_e (preds[0].cost) — the predicate every
	// single-predicate stage evaluates.
	cost core.CostModel
	// preds holds the resolved predicates, first predicate first.
	preds []resolvedPred
	// subset is the row universe every operator reads: the rows the cheap
	// filters keep, answered from the posting index at bind (filter.go), or
	// nil — every row — without filters. filterNS is the time that took,
	// the filter node's under EXPLAIN ANALYZE.
	subset   []int
	filterNS int64
	// groupCol is the pinned GROUP ON column of a grouping shape (nil when
	// the grouping is discovered or virtual, and for exact shapes).
	groupCol table.Column
	// epoch is the invalidation epoch captured before any evaluation (see
	// persistQueryLearnings).
	epoch int64
	// policy is the engine's failure policy when the statement bound:
	// anything but DegradeFailed turns a failed row into the statement's
	// error (failure).
	policy FailurePolicy
	// key is the statement's draw key (zero for exact shapes, which draw
	// nothing); stages draw under core.LabelDraw, SampleDraw, ExecuteDraw.
	key stats.Key
	// pool is the statement's worker pool (executeStatement builds and
	// closes it): every UDF-evaluating stage and the streaming terminal
	// fan out on it.
	pool *exec.Pool

	// Products of the operators, in pipeline order.
	groups      []core.Group         // op group-resolve (or join-group)
	chosen      string               // op group-resolve
	joinTbl     *table.Table         // join shape, bound during validation
	leftCol     table.Column         // join shape
	rightCol    table.Column         // join shape
	joinWeights []float64            // op join-group, parallel to groups
	sampler     *core.Sampler        // op sample, single predicate only: solve reads it, merge gates the column memo on it
	samples     []core.SampleOutcome // op sample / conj-sample
	sels        []float64            // op sample / conj-sample: pooled per predicate
	sampled     int                  // op group-resolve's labels + op sample / conj-sample's draw
	strategy    core.Strategy        // op solve / conj-solve
	spans       []core.Span          // op conj-solve: the predicates each group evaluates
	achieved    float64              // op solve (budget mode)
	output      []int                // op prob-eval / conj-exec
	retrieved   int                  // op prob-eval / conj-exec: rows fetched

	// res is the finished result, set by the chain's last operator (merge
	// or a streaming terminal) through finish — or early by the empty-join
	// short-circuit, after which the remaining stage bodies are skipped.
	res *Result

	// analyze turns on EXPLAIN ANALYZE instrumentation: each executed
	// operator records its deterministic counter deltas (and display-only
	// wall time) into the plan node it executes.
	analyze bool
}

// predTotals is a snapshot of the statement-wide deterministic counters:
// charged UDF calls, cache traffic and failed/denied rows summed over the
// predicates' meters, retries over their invokers. The batch executor
// diffs two snapshots to attribute work to one operator. Operators run
// sequentially (parallelism lives inside an operator), so the deltas are
// exact and — because every underlying counter is deterministic at any
// parallelism — bit-identical at any parallelism too.
type predTotals struct {
	calls, hits, misses, retries, failed, denied int
}

func (st *pipeState) predTotals() predTotals {
	var t predTotals
	for _, p := range st.preds {
		t.calls += p.meter.Calls()
		t.hits += p.meter.CacheHits()
		t.misses += p.meter.CacheMisses()
		failed, denied := p.meter.Failures()
		t.failed += failed
		t.denied += denied
		t.retries += int(p.inv.retries.Load())
	}
	return t
}

// finish assembles the statement's Result. It is the one place Stats are
// computed, for every shape, from the predicates' meters: each predicate's
// charged calls pay its own o_e (the per-predicate costs the greedy ordering
// and the EXPLAIN estimates use), cache hits are free, and every sampled row
// was also a retrieval. retrieved counts the rows fetched after sampling;
// exact marks an answer every row of which was verified under every
// predicate. Resilience accounting folds here too: failed rows from the
// meters, retries from the invokers, breaker trips as deltas against
// tripBase.
func (st *pipeState) finish(rows []int, retrieved int, exact bool) {
	stats := Stats{
		Retrievals:          st.sampled + retrieved,
		Sampled:             st.sampled,
		ChosenColumn:        st.chosen,
		Exact:               exact,
		AchievedRecallBound: st.achieved,
	}
	evalCost := 0.0
	for i, p := range st.preds {
		calls := p.meter.Calls()
		stats.Evaluations += calls
		evalCost += float64(calls) * p.cost
		stats.CacheHits += p.meter.CacheHits()
		stats.CacheMisses += p.meter.CacheMisses()
		failed, _ := p.meter.Failures()
		stats.FailedRows += failed
		stats.Retries += int(p.inv.retries.Load())
		// Duplicate predicates share one breaker: count its trips once.
		shared := false
		for _, earlier := range st.preds[:i] {
			shared = shared || earlier.breaker == p.breaker
		}
		if !shared {
			stats.BreakerTrips += int(p.breaker.Trips() - p.tripBase)
		}
	}
	stats.Degraded = stats.FailedRows > 0
	stats.Cost = float64(stats.Retrievals)*st.cost.Retrieve + evalCost
	st.res = &Result{Rows: rows, Stats: stats}
}

// bindStatement is the one place a statement's names are resolved — the
// base table, the join table and its keys, each predicate's UDF and
// argument column, a pinned grouping column, the projection and the cheap
// filters — into the pipeline state; the operators only read what it bound.
// The filters are answered here, from the posting index, so the planner
// sees the filtered universe's exact size. Both execution and EXPLAIN
// planning bind through here, so the two paths accept and reject exactly
// the same statements.
func (e *Engine) bindStatement(q Query) (*pipeState, error) {
	tbl, err := e.Table(q.Table)
	if err != nil {
		return nil, err
	}
	st := &pipeState{q: q, tbl: tbl}
	if join := q.Join; join != nil {
		st.joinTbl, err = e.Table(join.Table)
		if err != nil {
			return nil, err
		}
		st.leftCol = tbl.ColumnByName(join.LeftKey)
		if st.leftCol == nil {
			return nil, fmt.Errorf("engine: table %q has no column %q", q.Table, join.LeftKey)
		}
		st.rightCol = st.joinTbl.ColumnByName(join.RightKey)
		if st.rightCol == nil {
			return nil, fmt.Errorf("engine: table %q has no column %q", join.Table, join.RightKey)
		}
	}
	st.preds, err = e.resolvePreds(tbl, q)
	if err != nil {
		return nil, err
	}
	st.cost = core.CostModel{Retrieve: core.DefaultCost.Retrieve, Evaluate: st.preds[0].cost}
	st.policy = e.OnFailure
	// A pinned grouping column is only consulted by grouping shapes (exact
	// shapes ignore GroupOn), so only those reject a bad name.
	if q.Approx != nil && q.GroupOn != "" && q.GroupOn != VirtualColumn {
		if st.groupCol = tbl.ColumnByName(q.GroupOn); st.groupCol == nil {
			return nil, fmt.Errorf("engine: table %q has no column %q to group on", q.Table, q.GroupOn)
		}
	}
	if _, err := e.projection(tbl, q.Columns); err != nil {
		return nil, err
	}
	if len(q.Filters) > 0 {
		start := obs.Now()
		if st.subset, err = filterRows(tbl, q.Filters); err != nil {
			return nil, err
		}
		st.filterNS = obs.Since(start).Nanoseconds()
	}
	return st, nil
}

// resolvePreds binds every predicate of the query: its UDF — read from the
// registry once, so the body and the effective o_e (the UDF's own cost when
// set, core.DefaultCost's otherwise) come from the same registration —
// its row invoker (panic capture + retry + deadline, see resilience.go),
// shared circuit breaker and resilient meter. In approximate conjunctions,
// a predicate whose (UDF, argument) key collides with an earlier one gets a
// private (cache-less) meter, so each duplicate is billed for its own
// sampling calls instead of being served by what its twin just stored. (The rule dates from fused joint sampling, where that
// split depended on store timing; the pinned Stats keep it.) Exact
// conjunctions keep the shared cache even for duplicates — their waves are
// sequential barriers, so the later predicate's lookups deterministically
// hit what the earlier one stored.
func (e *Engine) resolvePreds(tbl *table.Table, q Query) ([]resolvedPred, error) {
	preds := make([]resolvedPred, len(q.Predicates))
	for i, p := range q.Predicates {
		u, err := e.registry.Lookup(p.UDFName)
		if err != nil {
			return nil, err
		}
		cost := core.DefaultCost.Evaluate
		if u.Cost > 0 {
			cost = u.Cost
		}
		col := tbl.ColumnByName(p.UDFArg)
		if col == nil {
			return nil, fmt.Errorf("engine: table %q has no column %q for UDF argument", q.Table, p.UDFArg)
		}
		inv := newRowInvoker(p.UDFName, u.Body, col, p.Want, e.retryPolicy(),
			resilience.HashString(q.Table+"\x00"+p.UDFName+"\x00"+p.UDFArg))
		private := false
		for j := 0; q.Approx != nil && j < i; j++ {
			if q.Predicates[j].UDFName == p.UDFName && q.Predicates[j].UDFArg == p.UDFArg {
				private = true
				break
			}
		}
		var cache core.EvalCache
		if !private && e.CacheUDFResults {
			key := evalCacheKey{table: q.Table, udf: p.UDFName, column: p.UDFArg}
			cache = wantFoldedCache{inner: e.evalCache(key, tbl.NumRows()), want: p.Want}
		}
		breaker := e.breakerFor(q.Table, p.UDFName)
		preds[i] = resolvedPred{spec: p, inv: inv, meter: core.NewResilientMeter(inv, cache, breaker),
			cost: cost, breaker: breaker, tripBase: breaker.Trips()}
	}
	return preds, nil
}

// actualSince renders the counters accumulated since the before snapshot
// as one operator's plan.Actual; rows and wall time are the caller's to
// fill in.
func (t predTotals) actualSince(before predTotals) *plan.Actual {
	return &plan.Actual{
		Calls:       t.calls - before.calls,
		CacheHits:   t.hits - before.hits,
		CacheMisses: t.misses - before.misses,
		Retries:     t.retries - before.retries,
		Denied:      t.denied - before.denied,
		Failed:      t.failed - before.failed,
	}
}

// stageOut is what a blocking stage body reports about its own product
// for EXPLAIN ANALYZE: rows out, and groups where the stage resolves them.
type stageOut struct{ rows, groups int }

// groupsOut reports the pipeline's current grouping as a stage product.
func (st *pipeState) groupsOut() stageOut {
	out := stageOut{groups: len(st.groups)}
	for _, g := range st.groups {
		out.rows += len(g.Rows)
	}
	return out
}

// opGroupResolve determines the grouping the optimizer will use: the
// pinned column (bound by bindStatement), a discovered correlated column
// (memo-accelerated), or the logistic-regression virtual column. The rows
// discovery or the virtual column label are billed as sampled rows
// (Stats.Sampled, Retrievals) but are no evidence about the groups they
// shaped: see opSample.
func (e *Engine) opGroupResolve(ctx context.Context, st *pipeState) (stageOut, error) {
	var err error
	switch st.q.GroupOn {
	case "":
		// A memoized Section 4.4 choice skips the labeling scan entirely
		// (warm runs are deterministic among themselves, not vs. cold runs:
		// they bill no labels).
		var ok bool
		if st.groups, st.chosen, ok = e.memoizedColumn(st); !ok {
			st.groups, st.chosen, st.sampled, err = e.discoverColumn(ctx, st)
		}
	case VirtualColumn:
		st.groups, st.chosen, st.sampled, err = e.virtualColumn(ctx, st)
	default:
		st.groups, _ = table.Partition(st.groupCol, st.subset, 0)
		st.chosen = st.q.GroupOn
	}
	if err != nil {
		return stageOut{}, err
	}
	return st.groupsOut(), nil
}

// joinWeights resolves the join multiplicity of every left row: how many
// rows of the join table carry its key. Keys match by rendered value (an int
// 1 joins a float 1), and each column's distinct values are rendered once:
// rows are counted and looked up by table.Codes' value codes, never by string.
func joinWeights(left, right table.Column) func(row int) int {
	_, rightKeys, counts := table.Codes(right)
	byKey := make(map[string]int, len(rightKeys))
	for code, k := range rightKeys {
		byKey[k] = counts[code]
	}
	leftCodes, leftKeys, _ := table.Codes(left)
	weights := make([]int, len(leftKeys))
	for code, k := range leftKeys {
		weights[code] = byKey[k]
	}
	return func(row int) int { return weights[leftCodes[row]] }
}

// opJoinGroup splits each group into (group, join-multiplicity) subgroups,
// so tuples in one subgroup share both selectivity behaviour and weight.
// Tuples whose join key matches nothing can never appear in the join
// result; they are dropped before the sampler ever sees them, and an
// entirely empty join short-circuits the pipeline.
func (e *Engine) opJoinGroup(_ context.Context, st *pipeState) (stageOut, error) {
	weight := joinWeights(st.leftCol, st.rightCol)
	type subKey struct {
		group  int
		weight int
	}
	sub := make(map[subKey][]int)
	for gi, g := range st.groups {
		for _, row := range g.Rows {
			w := weight(row)
			if w == 0 {
				continue
			}
			sub[subKey{gi, w}] = append(sub[subKey{gi, w}], row)
		}
	}
	if len(sub) == 0 {
		st.finish(nil, 0, false)
		return stageOut{}, nil
	}
	keys := make([]subKey, 0, len(sub))
	for k := range sub {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].group != keys[b].group {
			return keys[a].group < keys[b].group
		}
		return keys[a].weight < keys[b].weight
	})
	groups := make([]core.Group, len(keys))
	weights := make([]float64, len(keys))
	for i, k := range keys {
		groups[i] = core.Group{
			Key:  fmt.Sprintf("%s/w%d", st.groups[k.group].Key, k.weight),
			Rows: sub[k],
		}
		weights[i] = float64(k.weight)
	}
	st.groups, st.joinWeights = groups, weights
	return st.groupsOut(), nil
}

// opSample is the one sampling stage, sample and conj-sample alike: a
// Two-Third-Power allocation per group (the whole filtered scan counts as
// one group when nothing grouped it) through one sampler over every
// predicate. Its uniform draw, made after the grouping is fixed, is the
// only estimate of the groups: rows labeled to choose or train the grouping
// would overstate its purity (a label drawn again is served from the
// meter's memo). Each statement draws its own sample: what the catalog
// knows serves the draw's verdicts (the eval cache), never replaces it.
func (e *Engine) opSample(ctx context.Context, st *pipeState) (stageOut, error) {
	groups := st.groups
	if groups == nil {
		groups = []core.Group{{Key: "all", Rows: universe(st.tbl, st.subset)}}
	}
	sampler := core.NewJointSampler(groups, st.meters(), st.key.Sub(core.SampleDraw))
	sampler.SetPool(st.pool)
	if len(st.preds) == 1 {
		st.sampler = sampler
	}
	sizes := make([]int, len(groups))
	for i, g := range groups {
		sizes[i] = len(g.Rows)
	}
	alloc := core.DefaultAllocator(st.q.Approx.Precision)
	if _, err := sampler.TopUpCtx(ctx, alloc.Allocate(sizes)); err != nil {
		return stageOut{}, err
	}
	st.samples, st.sels = sampler.Outcomes(), sampler.Selectivities()
	st.sampled += sampler.TotalSampled()
	return stageOut{rows: sampler.TotalSampled()}, nil
}

// opSolve turns the sampling estimates into an execution strategy: the
// constrained program, the fixed-budget objective, or the join-weighted
// variant.
func (e *Engine) opSolve(mode string, st *pipeState) (stageOut, error) {
	infos := st.sampler.Infos()
	cons := st.q.Approx.Constraints()
	switch mode {
	case plan.ModeBudget:
		// What sampling spent, billed as finish bills it: every sampled row
		// was retrieved, but rows the cache served were not evaluated.
		spent := float64(st.sampled)*st.cost.Retrieve + float64(st.preds[0].meter.Calls())*st.cost.Evaluate
		remaining := st.q.Budget - spent
		if remaining < 0 {
			remaining = 0
		}
		p, err := core.PlanBudget(infos, cons.Alpha, cons.Rho, remaining, st.cost)
		if err != nil {
			return stageOut{}, err
		}
		st.strategy = p.Strategy
		st.achieved = p.AchievedBeta
	case plan.ModeJoinWeight:
		strat, err := core.PlanSelectJoin(infos, st.joinWeights, cons, st.cost)
		if err != nil {
			return stageOut{}, err
		}
		st.strategy = strat
	default:
		strat, err := core.PlanWithSamples(infos, cons, st.cost)
		if err != nil {
			return stageOut{}, err
		}
		st.strategy = strat
	}
	return stageOut{}, nil
}

// opProbEval is the one execution stage, prob-eval and conj-exec alike:
// per-tuple retrieve/evaluate coins drawn sequentially — the §4 strategy's,
// or the §5 actions' at 0 and 1 with each group's span of predicates — and
// UDF calls fanned across the worker pool through the predicates' own
// resilient meters. Sampled rows are resolved from their recorded outcomes
// for free.
func (e *Engine) opProbEval(ctx context.Context, st *pipeState) (stageOut, error) {
	res, err := core.ExecuteSpansParallelCtx(ctx, st.groups, st.strategy, st.spans, st.samples, st.meters(), st.cost, st.key.Sub(core.ExecuteDraw), st.pool)
	if err != nil {
		return stageOut{}, err
	}
	st.output, st.retrieved = res.Output, res.Retrieved
	return stageOut{rows: len(st.output)}, nil
}

// opMerge finishes every blocking pipeline, sampler-based and §5 alike:
// memoize a discovered column and assemble the result from the executor's
// output, which it returns ascending.
func (e *Engine) opMerge(_ context.Context, st *pipeState) (stageOut, error) {
	if st.sampler != nil {
		e.persistQueryLearnings(st)
	}
	st.finish(st.output, st.retrieved, false)
	return stageOut{rows: len(st.output)}, nil
}
