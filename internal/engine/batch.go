package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/table"
)

// The statement executor. plan.Physical lowers every statement to a
// plan.Chain, leaf first, whose nodes all block but one: the streaming
// terminal (exact-eval, conj-waves), or nothing when the chain ends in the
// merge stage. runPipeline runs that chain in two phases: every blocking
// stage body once, in chain order — grouping, sampling, solving, the three
// §5 stages and merge, everything whose algorithm needs the whole input —
// then one batch loop over the row universe. In that loop the streaming
// terminal evaluates the universe batch by batch, or a blocking chain
// replays its merged result to the sink.
//
// The determinism contract is untouched: batches are planned sequentially
// in row order, UDF evaluation inside a batch fans out through
// internal/exec, and verdicts merge back at their batch slot — so output
// rows and every Stats counter are bit-identical at any parallelism AND
// any batch size. The one documented exception is circuit-breaker timing:
// a breaker arms/trips on evaluation-order fold points, and batch
// boundaries are fold points, so workloads that trip breakers mid-query
// may deny different rows at different batch sizes (exactly as they
// already did at different breaker Segment sizes). See DESIGN.md, "Batch
// execution & streaming".

// DefaultBatchSize is the number of rows per batch when Engine.BatchSize
// is unset.
const DefaultBatchSize = 1024

// RowSink receives result-row batches as execution produces them. The
// slice is only valid during the call (copy to retain). Returning
// ErrStopStream stops production — no further batch is evaluated and the
// query finishes with statistics covering the work actually done; any
// other error aborts the query with that error.
type RowSink func(rows []int) error

// ErrStopStream is returned by a RowSink to stop a streaming query early
// (e.g. a row limit was reached). Batches not yet evaluated are skipped
// entirely.
var ErrStopStream = errors.New("engine: stop streaming")

// scanRows is the statement's row universe as the scan emits it: the
// filtered rows, or (nil, n) for the n row ids of an unfiltered table.
func (st *pipeState) scanRows() (rows []int, n int) {
	if st.subset != nil {
		return st.subset, len(st.subset)
	}
	return nil, st.tbl.NumRows()
}

// batcher replays a row list — or, when rows is nil, the ids 0..n-1 — one
// batch per call, then nil at the end. A list is sliced, not copied; ids are
// generated into buf, sized once to the batch size, which the next call
// reuses, so a fully-streamed unfiltered scan allocates O(batch), not
// O(table).
type batcher struct {
	cursor int
	buf    []int
}

func (b *batcher) next(rows []int, n, size int) []int {
	if b.cursor >= n {
		return nil
	}
	start, end := b.cursor, min(b.cursor+size, n)
	b.cursor = end
	if rows != nil {
		return rows[start:end]
	}
	if b.buf == nil {
		b.buf = make([]int, 0, size)
	}
	b.buf = b.buf[:0]
	for i := start; i < end; i++ {
		b.buf = append(b.buf, i)
	}
	return b.buf
}

// stageBody is one blocking operator body (operators.go, conjunction.go):
// it reads and extends the pipeline state and reports its own product.
type stageBody func(ctx context.Context, st *pipeState) (stageOut, error)

// evalOp is the streaming terminal (exact-eval, conj-waves): it pushes each
// batch of the universe through the statement's short-circuit waves
// (core.Waves) and emits the survivors, so the first result batch leaves
// while later rows are still unevaluated. The waves are fixed once, after
// the blocking stages below it have run — so a conj-sample stage has
// produced its sample — and every batch flows through the same waves
// (prepareWaves). finalize assembles st.res from whatever was evaluated so
// far: at end-of-stream, or after an early stop.
type evalOp struct {
	st      *pipeState
	node    *plan.Node
	collect bool // accumulate output rows for st.res (materialized path)

	span  string // "op:<operator>", one span per evaluated batch
	waves core.Waves
	// sampled maps each jointly sampled row to whether it passed every
	// predicate (greedy conj-waves only): such a row is decided for free.
	// rows and need are the scratch for a batch without its decided rows.
	sampled   map[int]bool
	rows      []int
	need      []core.Span
	retrieved int
	emitted   int
	out       []int
	before    predTotals
	elapsedNS int64
}

// open fixes the terminal before its first batch: it snapshots the counters
// its EXPLAIN ANALYZE actuals are diffed from and prepares the waves.
func (o *evalOp) open() error {
	if o.st.analyze {
		o.before = o.st.predTotals()
	}
	if o.collect {
		// Materialized Rows are never nil, even when empty: callers and the
		// pinned results compare them as values.
		o.out = make([]int, 0)
	}
	o.span = "op:" + string(o.node.Op)
	return o.prepareWaves()
}

// next evaluates one batch of the universe under the terminal's span and
// returns its survivors (valid until the next call).
func (o *evalOp) next(ctx context.Context, rows []int) ([]int, error) {
	var survivors []int
	var retrieved int
	var err error
	o.elapsedNS += int64(obs.Timed(ctx, o.span, func() { survivors, retrieved, err = o.evalBatch(ctx, rows) }))
	if err != nil {
		return nil, err
	}
	o.retrieved += retrieved
	o.emitted += len(survivors)
	if o.collect {
		o.out = append(o.out, survivors...)
	}
	return survivors, nil
}

// finalize finishes the result. Every returned row was verified under every
// predicate, so the answer is exact even above a conj-sample stage — the
// accuracy contract is met deterministically and the sampling spend bought
// the wave ordering instead.
func (o *evalOp) finalize() {
	o.st.finish(o.out, o.retrieved, true)
	if o.st.analyze {
		a := o.st.predTotals().actualSince(o.before)
		a.Rows, a.ElapsedNS = o.emitted, o.elapsedNS
		o.node.Actual = a
	}
}

// stageBody resolves the blocking operator body for a stage node.
func (e *Engine) stageBody(n *plan.Node) (stageBody, error) {
	switch n.Op {
	case plan.OpGroupResolve:
		return e.opGroupResolve, nil
	case plan.OpJoinGroup:
		return e.opJoinGroup, nil
	case plan.OpSample, plan.OpConjSample:
		return e.opSample, nil
	case plan.OpSolve:
		return func(_ context.Context, st *pipeState) (stageOut, error) { return e.opSolve(n.Mode, st) }, nil
	case plan.OpProbEval, plan.OpConjExec:
		return e.opProbEval, nil
	case plan.OpMerge:
		return e.opMerge, nil
	case plan.OpConjSolve:
		return e.opConjSolve, nil
	default:
		return nil, fmt.Errorf("engine: unknown physical operator %q", n.Op)
	}
}

// runStage runs one blocking stage body under its op:<name> span and, under
// EXPLAIN ANALYZE, records its counter deltas, rows and wall time into its
// node. The one body that is ever skipped is a stage above the empty join:
// join-group finished the (empty) result, a finished result is final, and a
// skipped body draws no coins and charges no meter.
func (st *pipeState) runStage(ctx context.Context, n *plan.Node, run stageBody) error {
	if st.res != nil {
		if st.analyze {
			n.Actual = &plan.Actual{}
		}
		return nil
	}
	var before predTotals
	if st.analyze {
		before = st.predTotals()
	}
	var out stageOut
	var err error
	elapsed := obs.Timed(ctx, "op:"+string(n.Op), func() { out, err = run(ctx, st) })
	if err == nil && st.analyze {
		a := st.predTotals().actualSince(before)
		a.Rows, a.Groups, a.ElapsedNS = out.rows, out.groups, int64(elapsed)
		n.Actual = a
	}
	return err
}

// runPipeline executes one statement's physical chain: the scan, an
// optional filter, blocking stages, and a streaming terminal or the merge
// stage last. The blocking stages run first, in chain order: that order
// fixes the sequence of meter charges (what a later stage finds in the
// memo); the draws need no order, each stage's being keyed by its own
// sub-key of the statement's key. The stages read the row universe from
// st.subset, bound before the chain runs (the filter node is answered
// there, from the posting index), so only the batch loop reads the scan.
// With a nil sink the result is materialized into st.res: a blocking chain
// has then finished, and no batch is counted. With a sink, result batches
// are delivered as produced, and an ErrStopStream from the sink stops the
// loop, leaving Stats covering the evaluation actually performed.
func (e *Engine) runPipeline(ctx context.Context, chain plan.Chain, st *pipeState, sink RowSink) error {
	scan, filter, rest := chain[0], (*plan.Node)(nil), chain[1:]
	if len(rest) > 0 && rest[0].Op == plan.OpFilter {
		filter, rest = rest[0], rest[1:]
	}
	// The chain's last node finishes the result: a streaming terminal, or
	// the merge stage of a blocking chain, which runs with the stages.
	var term *evalOp
	if last := chain[len(chain)-1]; last.Op != plan.OpMerge {
		term = &evalOp{st: st, node: last, collect: sink == nil, waves: core.Waves{Pool: st.pool}}
		rest = rest[:len(rest)-1]
	}
	for _, n := range rest {
		body, err := e.stageBody(n)
		if err != nil {
			return err
		}
		if err := st.runStage(ctx, n, body); err != nil {
			return err
		}
	}
	var scanNS int64
	if term != nil {
		if err := term.open(); err != nil {
			return err
		}
		// Only a scan feeding the terminal directly is timed as one: above a
		// stage the universe is st.subset, bound before anything ran.
		var err error
		if scanNS, err = e.batchLoop(ctx, st, term, len(rest) == 0, sink); err != nil {
			return err
		}
		// At end-of-stream or after an early stop: Stats from the work done.
		term.finalize()
	} else if sink != nil {
		if _, err := e.batchLoop(ctx, st, nil, false, sink); err != nil {
			return err
		}
	}
	if st.analyze {
		// The fused scan(+filter): the scan reports the table's row universe,
		// the filter node the rows its predicates keep and the time
		// bindStatement spent answering them. Neither charges UDF counters —
		// cheap predicates run on resident column data and the posting index.
		scan.Actual = &plan.Actual{Rows: st.tbl.NumRows(), ElapsedNS: scanNS}
		if filter != nil {
			filter.Actual = &plan.Actual{Rows: len(st.subset), ElapsedNS: st.filterNS}
		}
	}
	return nil
}

// batchLoop is the one batch loop: the terminal evaluates the scan universe
// batch by batch (each fill an op:scan span when timeScan is set), or, with
// no terminal, a blocking chain replays its finished result. Non-empty
// batches go to the sink, when there is one, between the batch counters.
// It returns the time spent filling scan batches.
func (e *Engine) batchLoop(ctx context.Context, st *pipeState, term *evalOp, timeScan bool, sink RowSink) (scanNS int64, err error) {
	rows, n := st.scanRows()
	if term == nil {
		rows, n = st.res.Rows, len(st.res.Rows)
	}
	var b batcher
	size := e.batchSize()
	// The loop ends once the cursor reaches n, so no scan span times an
	// empty fill past the universe's end.
	for b.cursor < n {
		if err := ctx.Err(); err != nil {
			return scanNS, err
		}
		var batch []int
		if timeScan {
			scanNS += int64(obs.Timed(ctx, "op:scan", func() { batch = b.next(rows, n, size) }))
		} else {
			batch = b.next(rows, n, size)
		}
		if term != nil {
			if batch, err = term.next(ctx, batch); err != nil {
				return scanNS, err
			}
			if len(batch) == 0 {
				continue // batch fully rejected
			}
		}
		e.noteBatch(len(batch))
		if sink != nil {
			err = sink(batch)
		}
		e.batchDone()
		if errors.Is(err, ErrStopStream) {
			return scanNS, nil
		}
		if err != nil {
			return scanNS, err
		}
	}
	return scanNS, nil
}

// batchSize resolves the effective rows-per-batch.
func (e *Engine) batchSize() int {
	if e.BatchSize > 0 {
		return e.BatchSize
	}
	return DefaultBatchSize
}

// noteBatch / batchDone maintain the engine-lifetime batch observability
// counters around one emitted batch's downstream processing.
func (e *Engine) noteBatch(rows int) {
	e.batchesInFlight.Add(1)
	e.batchesTotal.Add(1)
	for {
		cur := e.peakBatchRows.Load()
		if int64(rows) <= cur || e.peakBatchRows.CompareAndSwap(cur, int64(rows)) {
			break
		}
	}
}

func (e *Engine) batchDone() { e.batchesInFlight.Add(-1) }

// BatchCounters reports engine-lifetime batch execution observability:
// batches currently being processed downstream (in flight), the largest
// batch (in rows) any query emitted, and the total batches emitted.
func (e *Engine) BatchCounters() (inFlight, peakRows, total int64) {
	return e.batchesInFlight.Load(), e.peakBatchRows.Load(), e.batchesTotal.Load()
}

// ExecuteStreamContext runs the query, delivering matching row ids to the
// sink in deterministic batches as execution produces them. For streaming
// shapes (exact selections and conjunction waves) the first batch arrives
// while later batches are still unevaluated; blocking shapes (sampling
// pipelines, the §5 two-predicate plan, joins) complete their evaluation
// first and then stream the finished result out in batches. The returned
// Stats cover the evaluation performed — after an ErrStopStream they
// reflect only the batches actually evaluated.
func (e *Engine) ExecuteStreamContext(ctx context.Context, q Query, sink RowSink) (Stats, error) {
	if sink == nil {
		return Stats{}, fmt.Errorf("engine: ExecuteStreamContext requires a sink")
	}
	res, _, err := e.executeStatement(ctx, q, false, sink)
	if err != nil {
		return Stats{}, err
	}
	return res.Stats, nil
}

// Renderer resolves the query's projection against its base table and
// returns the projected column names plus a per-row cell renderer. It is
// the one way result cells are produced — streamed batches and materialized
// Rows both call it — and it reads the base columns directly (the column's
// canonical StringAt, the same text Materialize + CellString yields), so
// no result table is built to format rows.
func (e *Engine) Renderer(q Query) ([]string, func(row int) []string, error) {
	tbl, err := e.Table(q.Table)
	if err != nil {
		return nil, nil, err
	}
	idxs, err := e.projection(tbl, q.Columns)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(idxs))
	cols := make([]table.Column, len(idxs))
	for i, j := range idxs {
		names[i] = tbl.Schema().Col(j).Name
		cols[i] = tbl.Column(j)
	}
	render := func(row int) []string {
		cells := make([]string, len(cols))
		for i, c := range cols {
			cells[i] = c.StringAt(row)
		}
		return cells
	}
	return names, render, nil
}
