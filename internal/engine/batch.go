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

// Volcano-style batch execution. The planner's physical chain is compiled
// into a pull pipeline of BatchOperators, exactly one per plan node (the
// filter node shares the scan's: bindStatement answered its predicates from
// the posting index): the scan yields row-id batches of the filtered
// universe, or generates an unfiltered table's ids lazily, the streaming
// terminal (exact-eval, conj-waves) evaluates one batch at a time, and
// blocking stages — everything whose algorithm needs the whole input
// (grouping, sampling, solving, the three §5 stages, merge) — run their
// operator body once during Open and then replay their product downstream
// in batches.
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

// Batch is one unit of rows flowing between operators: a selection vector
// of row ids into the (columnar) base table, at most Engine.BatchSize
// long. The slice is owned by the producing operator and valid only until
// its next Next call — consumers that retain rows must copy them.
type Batch struct {
	Rows []int
}

// BatchOperator is the Volcano iterator contract every physical operator
// implements. Open prepares the operator (and its children; blocking
// stages do their work here), Next returns the next non-empty batch or
// (nil, nil) at end-of-stream, Close releases resources. Operators are
// single-consumer: Next must not be called concurrently.
type BatchOperator interface {
	Open(ctx context.Context) error
	Next(ctx context.Context) (*Batch, error)
	Close() error
}

// RowSink receives result-row batches as execution produces them. The
// slice is only valid during the call (copy to retain). Returning
// ErrStopStream stops production — upstream operators are cancelled and
// the query finishes with statistics covering the work actually done;
// any other error aborts the query with that error.
type RowSink func(rows []int) error

// ErrStopStream is returned by a RowSink to stop a streaming query early
// (e.g. a row limit was reached). Evaluation of batches not yet pulled is
// skipped entirely.
var ErrStopStream = errors.New("engine: stop streaming")

// scanOp is the pipeline leaf: it yields the statement's row universe in
// batches of the engine's batch size — the rows the cheap filters keep,
// which bindStatement answered from the posting index (the filter node is
// fused into this operator), or every row id of an unfiltered table,
// generated into one reused buffer, so a fully-streamed scan allocates
// O(batch), not O(table).
type scanOp struct {
	e          *Engine
	st         *pipeState
	node       *plan.Node // scan node (EXPLAIN ANALYZE attribution)
	filterNode *plan.Node // filter node fused into this scan; nil without filters

	out       batcher
	cur       *Batch
	elapsedNS int64
}

func (s *scanOp) Open(context.Context) error {
	if s.st.subset == nil && s.out.buf == nil {
		s.out.buf = make([]int, 0, s.e.batchSize())
	}
	return nil
}

func (s *scanOp) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.elapsedNS += int64(obs.Timed(ctx, "op:scan", s.fill))
	return s.cur, nil
}

func (s *scanOp) fill() {
	rows, n := s.st.scanRows()
	s.cur = s.out.next(rows, n, s.e.batchSize())
}

func (s *scanOp) Close() error { return nil }

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
// generated into buf, which the next call reuses.
type batcher struct {
	cursor int
	buf    []int
	batch  Batch
}

func (b *batcher) next(rows []int, n, size int) *Batch {
	if b.cursor >= n {
		return nil
	}
	end := min(b.cursor+size, n)
	if rows != nil {
		b.batch.Rows = rows[b.cursor:end]
	} else {
		b.buf = b.buf[:0]
		for i := b.cursor; i < end; i++ {
			b.buf = append(b.buf, i)
		}
		b.batch.Rows = b.buf
	}
	b.cursor = end
	return &b.batch
}

// stageBody is one blocking operator body (operators.go, conjunction.go):
// it reads and extends the pipeline state and reports its own product.
type stageBody func(ctx context.Context, st *pipeState) (stageOut, error)

// stageOp runs one blocking operator body (group-resolve, join-group,
// sample, solve, prob-eval, conj-sample, conj-solve, conj-exec, merge) in
// the iterator contract: Open runs the children first (pipeline tail), then
// the body. That child-first order fixes the sequence of meter charges
// (what a later stage finds in the memo), so it must not depend on who
// pulls or how; the draws need no order, each stage's being keyed by its
// own sub-key of the statement's key. Next replays the stage's product
// downstream in batches. The one body that is ever skipped is a stage above
// the empty join: join-group finished the (empty) result, a finished result
// is final, and a skipped body draws no coins and charges no meter. The bodies read
// the row universe from st.subset, bound before the pipeline opens, so the
// scan below a blocking chain is never pulled.
type stageOp struct {
	e     *Engine
	st    *pipeState
	node  *plan.Node
	child BatchOperator
	run   stageBody
	// final marks the merge stage: its product is the finished result, and
	// replaying it is what streams a blocking shape's output incrementally.
	// Every other stage consumes groups and samples out of pipeState, so
	// what flows up from it (to the conj-waves terminal above a conj-sample
	// stage) is the scan universe itself.
	final bool

	opened bool
	out    batcher
}

func (s *stageOp) Open(ctx context.Context) error {
	if s.opened {
		return nil
	}
	s.opened = true
	if err := s.child.Open(ctx); err != nil {
		return err
	}
	if s.st.res != nil {
		if s.st.analyze {
			s.node.Actual = &plan.Actual{}
		}
		return nil // the empty join below already finished the result
	}
	var before predTotals
	if s.st.analyze {
		before = s.st.predTotals()
	}
	var out stageOut
	var err error
	elapsed := obs.Timed(ctx, "op:"+string(s.node.Op), func() { out, err = s.run(ctx, s.st) })
	if err == nil && s.st.analyze {
		a := s.st.predTotals().actualSince(before)
		a.Rows, a.Groups, a.ElapsedNS = out.rows, out.groups, int64(elapsed)
		s.node.Actual = a
	}
	return err
}

func (s *stageOp) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The finished result above the merge stage, the scan universe above
	// any other.
	rows, n := s.st.scanRows()
	if s.final {
		rows, n = s.st.res.Rows, len(s.st.res.Rows)
	}
	return s.out.next(rows, n, s.e.batchSize()), nil
}

func (s *stageOp) Close() error { return s.child.Close() }

// evalOp is the streaming terminal (exact-eval, conj-waves): it pushes each
// pulled batch through the statement's short-circuit waves (core.Waves) and
// emits the survivors, so the first result batch leaves while later rows
// are still unevaluated. The waves are fixed at the end of Open — after the
// child chain, so a conj-sample stage below has produced its sample — and
// every batch flows through the same waves (prepareWaves). finalize
// assembles st.res from whatever was evaluated so far: at end-of-stream, or
// after an early stop.
type evalOp struct {
	st      *pipeState
	node    *plan.Node
	child   BatchOperator
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
	batch     Batch
	opened    bool
	before    predTotals
	elapsedNS int64
}

func (o *evalOp) Open(ctx context.Context) error {
	if o.opened {
		return nil
	}
	o.opened = true
	if err := o.child.Open(ctx); err != nil {
		return err
	}
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

func (o *evalOp) Next(ctx context.Context) (*Batch, error) {
	for {
		cb, err := o.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if cb == nil {
			o.finalize()
			return nil, nil
		}
		var survivors []int
		var retrieved int
		o.elapsedNS += int64(obs.Timed(ctx, o.span, func() { survivors, retrieved, err = o.evalBatch(ctx, cb.Rows) }))
		if err != nil {
			return nil, err
		}
		o.retrieved += retrieved
		o.emitted += len(survivors)
		if o.collect {
			o.out = append(o.out, survivors...)
		}
		if len(survivors) == 0 {
			continue // batch fully rejected; pull the next one
		}
		o.batch.Rows = survivors
		return &o.batch, nil
	}
}

// finalize finishes the result. Every returned row was verified under every
// predicate, so the answer is exact even above a conj-sample stage — the
// accuracy contract is met deterministically and the sampling spend bought
// the wave ordering instead.
func (o *evalOp) finalize() {
	if o.st.res != nil {
		return
	}
	o.st.finish(o.out, o.retrieved, true)
	if o.st.analyze {
		a := o.st.predTotals().actualSince(o.before)
		a.Rows, a.ElapsedNS = o.emitted, o.elapsedNS
		o.node.Actual = a
	}
}

func (o *evalOp) Close() error { return o.child.Close() }

// pipeline is a compiled operator chain plus what the executor needs to
// drive and account for it.
type pipeline struct {
	st     *pipeState
	root   BatchOperator
	scan   *scanOp
	stream *evalOp // nil when the chain ends in the blocking merge stage
}

// buildPipeline compiles the physical plan chain (a linear single-child
// tree) into a pull pipeline: one operator per node, the filter node fused
// into the scan's. collect makes the streaming terminal accumulate its
// output rows into st.res (the materialized, sink-less path).
func (e *Engine) buildPipeline(root *plan.Node, st *pipeState, collect bool) (*pipeline, error) {
	var chain []*plan.Node
	for n := root; n != nil; n = n.Child() {
		if len(n.Children) > 1 {
			return nil, fmt.Errorf("engine: physical node %q has %d children, want a linear chain", n.Op, len(n.Children))
		}
		chain = append(chain, n)
	}
	// The chain's last operator finishes the result: a streaming terminal,
	// or the merge stage of a blocking chain.
	if top := chain[0].Op; top != plan.OpExactEval && top != plan.OpConjWaves && top != plan.OpMerge {
		return nil, fmt.Errorf("engine: pipeline ends in %q, which finishes no result", top)
	}
	i := len(chain) - 1
	if chain[i].Op != plan.OpScan {
		return nil, fmt.Errorf("engine: pipeline does not end in a scan (got %q)", chain[i].Op)
	}
	scan := &scanOp{e: e, st: st, node: chain[i]}
	i--
	if i >= 0 && chain[i].Op == plan.OpFilter {
		scan.filterNode = chain[i] // fused: the scan emits the filtered universe
		i--
	}
	p := &pipeline{st: st, scan: scan}
	var cur BatchOperator = scan
	for ; i >= 0; i-- {
		n := chain[i]
		switch n.Op {
		case plan.OpExactEval, plan.OpConjWaves:
			p.stream = &evalOp{st: st, node: n, child: cur, collect: collect, waves: core.Waves{Pool: e.pool()}}
			cur = p.stream
		default:
			body, err := e.stageBody(n)
			if err != nil {
				return nil, err
			}
			cur = &stageOp{e: e, st: st, node: n, child: cur, run: body, final: n.Op == plan.OpMerge}
		}
	}
	p.root = cur
	return p, nil
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

// recordScanActuals attributes the fused scan(+filter) under EXPLAIN
// ANALYZE: the scan reports the table's row universe, the filter node the
// rows its predicates keep and the time bindStatement spent answering them.
// Neither charges UDF counters — cheap predicates run on resident column
// data and the table's posting index.
func (p *pipeline) recordScanActuals() {
	if !p.st.analyze {
		return
	}
	sc := p.scan
	sc.node.Actual = &plan.Actual{Rows: p.st.tbl.NumRows(), ElapsedNS: sc.elapsedNS}
	if sc.filterNode != nil {
		sc.filterNode.Actual = &plan.Actual{Rows: len(p.st.subset), ElapsedNS: p.st.filterNS}
	}
}

// runPipeline compiles and drives the batch pipeline for one statement.
// With a nil sink the result is materialized into st.res (a blocking chain
// finishes it during Open and its merge stage is never pulled, so no batch
// is counted); with a sink, result batches are delivered as produced and an
// ErrStopStream from the sink cancels upstream work, leaving Stats covering
// the evaluation actually performed.
func (e *Engine) runPipeline(ctx context.Context, root *plan.Node, st *pipeState, sink RowSink) error {
	pipe, err := e.buildPipeline(root, st, sink == nil)
	if err != nil {
		return err
	}
	defer pipe.root.Close()
	pctx := ctx
	var cancel context.CancelFunc
	if sink != nil {
		pctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	if err := pipe.root.Open(pctx); err != nil {
		return err
	}
	if sink == nil && pipe.stream == nil {
		// Blocking chain, materialized query: the stages finished st.res
		// during Open; there is no one to pull it for.
		pipe.recordScanActuals()
		return nil
	}
	for {
		b, err := pipe.root.Next(pctx)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		e.noteBatch(len(b.Rows))
		if sink != nil {
			err = sink(b.Rows)
		}
		e.batchDone()
		if err != nil {
			if errors.Is(err, ErrStopStream) {
				cancel()
				break
			}
			return err
		}
	}
	if pipe.stream != nil {
		// After an early stop, assemble Stats from the work done.
		pipe.stream.finalize()
	}
	pipe.recordScanActuals()
	return nil
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
// reflect only the batches actually pulled.
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
