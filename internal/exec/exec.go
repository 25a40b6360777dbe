// Package exec is the parallel-evaluation substrate: a small worker pool
// that fans independent work items (UDF invocations, almost always) across
// goroutines and merges results back in item order, so callers get
// bit-for-bit deterministic output regardless of the parallelism level.
//
// The design deliberately keeps all randomness and planning OUT of this
// package: callers run a sequential plan phase that draws every random coin
// and emits a work-list, then hand the work-list here for evaluation. The
// pool only decides which goroutine runs which item, which affects wall
// clock but never results — each item's output lands at its own index.
//
// Worker count is exactly the requested parallelism (bounded below by 1 and
// above by the number of items). It is intentionally NOT clamped to
// runtime.GOMAXPROCS: expensive predicates are frequently I/O-bound (remote
// services, human labeling, disk), where oversubscribing cores is the whole
// point. CPU-bound callers should pass runtime.GOMAXPROCS(0).
//
// Chunking: workers claim contiguous chunks off an atomic cursor, which
// amortizes the atomic op for cheap items while staying balanced for
// expensive ones. A chunk is n/(workers·8) items (at least 1) — unless the
// batch is large enough that every worker still gets four chunks of 128
// items, and then it is a whole number of 128-item lines (at least one).
// 128 rows share one 64-byte line of core's verdict state, so on a batch of
// consecutive rows two workers then never CAS the same line: a 1,024-row
// batch at 2 workers runs as eight 128-row chunks, not sixteen of 64.
// Small batches (sampler top-ups, a few expensive rows) keep the fine
// chunks for balance. The rule reads n and the worker count only. On a
// 2-CPU host, predbench's exact_scan (44 batches of 1,024 instant rows)
// read a median 6.98 ms per statement with 64-row chunks and 5.65 ms with
// whole lines (six alternated runs each).
//
// Workers: a Pool keeps the goroutines it starts. A worker that finishes a
// batch parks on the pool until the next batch hands it work or Close
// releases it, so one pool per statement spawns its workers about once,
// not once per batch. Handing a batch's work to a worker never blocks: when
// no parked worker takes it, a new goroutine does. Concurrent batches on
// one pool, and a batch nested inside another's item, therefore always get
// their workers and cannot deadlock. The calling goroutine only waits; a
// variant in which it worked too measured slower on exact_scan.
//
// Cancellation: the Ctx variants accept a context.Context and poll its Done
// channel between work items — a non-blocking receive, which takes no lock;
// ctx.Err() is called only once Done is closed — so a cancel stops the
// batch after at most one in-flight item per worker. (On Go 1.24,
// cancelCtx.Err locks the context's mutex: called per item by every worker
// it was over 40 % of exact_scan's CPU samples.) A cancelled batch returns
// ctx.Err() and its partial outputs must be discarded — items that did run
// completed fully (an item is never abandoned mid-call), which is what
// keeps caller-side memoization and shared caches consistent after a
// cancel.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is what the pool re-panics with when a work item panics: the
// original panic value plus the stack of the panicking goroutine, captured
// inside the worker's recover (before the frames unwind), so post-mortems
// point at the UDF body rather than at the pool's re-panic site.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value with its originating stack.
func (p *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n\n%s", p.Value, p.Stack)
}

// Pool runs batches of independent work items on up to a fixed number of
// concurrent workers. The zero value is not useful; use NewPool. A Pool is
// safe for concurrent use, and batches may nest (an item may run a batch on
// the pool that runs it). The goroutines a pool starts outlive the batch
// that started them: they park on the pool between batches, and Close
// releases them, so whoever builds a pool closes it after its last batch.
// A pool at parallelism 1 runs every batch on the calling goroutine and
// never starts one.
type Pool struct {
	workers int
	// handoff passes one batch's work to a parked worker; quit, closed by
	// Close, releases the parked workers; live counts the pool's goroutines.
	handoff chan func()
	quit    chan struct{}
	closing sync.Once
	live    sync.WaitGroup
}

// NewPool returns a pool of the given parallelism. Non-positive values
// default to runtime.GOMAXPROCS(0).
func NewPool(parallelism int) *Pool {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: parallelism, handoff: make(chan func()), quit: make(chan struct{})}
}

// Close releases the pool's parked workers and returns once every goroutine
// the pool started has exited; a batch still running finishes first. Close
// is idempotent. Call it after the pool's last batch: a batch begun after
// Close still completes, but its workers exit with it instead of parking.
func (p *Pool) Close() {
	p.closing.Do(func() { close(p.quit) })
	p.live.Wait()
}

// start runs work on a parked worker, or on a new goroutine when none is
// parked. It never blocks, which is what keeps concurrent and nested
// batches on one pool free of deadlock.
func (p *Pool) start(work func()) {
	select {
	case p.handoff <- work:
	default:
		p.live.Add(1)
		go p.worker(work)
	}
}

// worker runs work, then parks until the pool hands it more or is closed.
func (p *Pool) worker(work func()) {
	defer p.live.Done()
	for {
		work()
		select {
		case work = <-p.handoff:
		case <-p.quit:
			return
		}
	}
}

// line is the number of consecutive rows whose verdict state shares one
// 64-byte cache line in internal/core (its lineRows).
const line = 128

// chunkSize is the number of items a worker claims at a time (see the
// package comment on chunking).
func chunkSize(n, workers int) int {
	chunk := n / (workers * 8)
	if n >= workers*4*line {
		return max(line, chunk/line*line)
	}
	return max(chunk, 1)
}

// ended reports, without taking the context's lock, whether done — a
// context's Done channel — is closed. A nil channel never closes.
func ended(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// ForEachCtx invokes fn(i) for every i in [0, n), using up to the pool's
// parallelism in goroutines. When parallelism is 1 (or n is 1) everything
// runs on the calling goroutine, in index order.
//
// fn must be safe for concurrent invocation when the pool's parallelism
// exceeds 1. If any invocation panics, no further chunks are claimed
// (in-flight chunks on other workers still finish) and the first captured
// panic is re-panicked on the calling goroutine as a *PanicError carrying
// the original value and the panicking goroutine's stack. The pool stays
// usable.
//
// Every worker polls ctx.Done() between work items, so after a cancel each
// worker finishes at most the one item it had in flight and stops claiming
// more. If the context ends before all n items ran, ForEachCtx returns
// ctx.Err(); items that did run completed fully (none are abandoned
// mid-call). Outputs of a cancelled batch are truncated, never reordered —
// but callers should discard them and propagate the error. While the
// context is live, ForEachCtx never calls ctx.Err().
func (p *Pool) ForEachCtx(ctx context.Context, n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	done := ctx.Done()
	w := min(p.workers, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			if ended(done) {
				return ctx.Err()
			}
			runOne(i, fn)
		}
		return nil
	}
	b := &batch{n: n, chunk: chunkSize(n, w), fn: fn, done: done}
	b.wg.Add(w)
	work := b.work
	for range w {
		p.start(work)
	}
	b.wg.Wait()
	if b.panics > 0 {
		panic(b.panicV)
	}
	if b.cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// batch is one parallel ForEachCtx call: the workers it was handed to
// claim fixed-size chunks off its cursor until the items run out.
type batch struct {
	n, chunk  int
	fn        func(int)
	done      <-chan struct{}
	cursor    atomic.Int64
	wg        sync.WaitGroup
	cancelled atomic.Bool
	panicMu   sync.Mutex
	panicV    any
	panics    int
}

// work is one worker's share of the batch.
func (b *batch) work() {
	defer b.wg.Done()
	for {
		end := int(b.cursor.Add(int64(b.chunk)))
		start := end - b.chunk
		if start >= b.n {
			return
		}
		if !b.runChunk(start, min(end, b.n)) {
			// Park the cursor past the end so idle workers stop claiming
			// chunks: once a panic or cancel is destined to discard the
			// batch, further expensive calls are pure waste. In-flight
			// chunks still finish their current item.
			b.cursor.Store(int64(b.n))
			return
		}
	}
}

// runOne invokes one item on the calling goroutine, wrapping any panic in
// a *PanicError so sequential and parallel batches re-panic identically.
func runOne(i int, fn func(int)) {
	defer func() {
		if r := recover(); r != nil {
			if _, wrapped := r.(*PanicError); !wrapped {
				r = &PanicError{Value: r, Stack: debug.Stack()}
			}
			panic(r)
		}
	}()
	fn(i)
}

// runChunk executes one claimed chunk, polling the context before every
// item and recording the first panic; it reports whether the worker should
// keep claiming work.
func (b *batch) runChunk(start, end int) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			// Wrap with the panicking goroutine's stack (still intact here:
			// deferred recovery runs before the frames unwind). Nested pools
			// re-panic a *PanicError that is passed through untouched.
			if _, wrapped := r.(*PanicError); !wrapped {
				r = &PanicError{Value: r, Stack: debug.Stack()}
			}
			b.panicMu.Lock()
			if b.panics == 0 {
				b.panicV = r
			}
			b.panics++
			b.panicMu.Unlock()
			ok = false
		}
	}()
	for i := start; i < end; i++ {
		if ended(b.done) {
			b.cancelled.Store(true)
			return false
		}
		b.fn(i)
	}
	return true
}

// EvalRowsCtx evaluates pred over each row id and returns the verdicts in
// input order. This is the batch shape every UDF path uses: the caller's
// plan phase produces the row work-list, this fans the expensive calls out.
// On cancellation it returns (nil, ctx.Err()): the partial verdicts are
// withheld so no caller can mistake a truncated batch for a complete one.
func (p *Pool) EvalRowsCtx(ctx context.Context, rows []int, pred func(row int) bool) ([]bool, error) {
	out := make([]bool, len(rows))
	if err := p.ForEachCtx(ctx, len(rows), func(i int) { out[i] = pred(rows[i]) }); err != nil {
		return nil, err
	}
	return out, nil
}
