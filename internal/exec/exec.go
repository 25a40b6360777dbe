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
// Cancellation: the Ctx variants accept a context.Context and check it
// between work items, so a cancel stops the batch after at most one
// in-flight item per worker. A cancelled batch returns ctx.Err() and its
// partial outputs must be discarded — items that did run completed fully
// (an item is never abandoned mid-call), which is what keeps caller-side
// memoization and shared caches consistent after a cancel.
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
// stateless between calls (workers live only for the duration of one batch)
// and is safe for concurrent use.
type Pool struct {
	workers int
}

// NewPool returns a pool of the given parallelism. Non-positive values
// default to runtime.GOMAXPROCS(0).
func NewPool(parallelism int) *Pool {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: parallelism}
}

// ForEachCtx invokes fn(i) for every i in [0, n), using up to the pool's
// parallelism in goroutines. When parallelism is 1 (or n is 1) everything
// runs on the calling goroutine, in index order.
//
// fn must be safe for concurrent invocation when the pool's parallelism
// exceeds 1. If any invocation panics, no further chunks are claimed
// (in-flight chunks on other workers still finish) and the first captured
// panic is re-panicked on the calling goroutine as a *PanicError carrying
// the original value and the panicking goroutine's stack.
//
// Every worker checks ctx between work items, so after a cancel each worker
// finishes at most the one item it had in flight and stops claiming more.
// If the context ends before all n items ran, ForEachCtx returns ctx.Err();
// items that did run completed fully (none are abandoned mid-call). Outputs
// of a cancelled batch are truncated, never reordered — but callers should
// discard them and propagate the error.
func (p *Pool) ForEachCtx(ctx context.Context, n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			runOne(i, fn)
		}
		return nil
	}
	// Workers claim fixed-size chunks off an atomic cursor. Chunking
	// amortizes the atomic op for cheap items while staying balanced for
	// expensive ones (at most workers·8 claims per batch).
	chunk := n / (w * 8)
	if chunk < 1 {
		chunk = 1
	}
	var (
		cursor    atomic.Int64
		wg        sync.WaitGroup
		cancelled atomic.Bool
		panicMu   sync.Mutex
		panicV    any
		panics    int
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				end := int(cursor.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				if !runChunk(ctx, start, end, fn, &cancelled, &panicMu, &panicV, &panics) {
					// Park the cursor past the end so idle workers stop
					// claiming chunks: once a panic or cancel is destined to
					// discard the batch, further expensive calls are pure
					// waste. In-flight chunks still finish their current item.
					cursor.Store(int64(n))
					return
				}
			}
		}()
	}
	wg.Wait()
	if panics > 0 {
		panic(panicV)
	}
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
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

// runChunk executes one claimed chunk, checking the context before every
// item and recording the first panic; it reports whether the worker should
// keep claiming work.
func runChunk(ctx context.Context, start, end int, fn func(int), cancelled *atomic.Bool, mu *sync.Mutex, first *any, count *int) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			// Wrap with the panicking goroutine's stack (still intact here:
			// deferred recovery runs before the frames unwind). Nested pools
			// re-panic a *PanicError that is passed through untouched.
			if _, wrapped := r.(*PanicError); !wrapped {
				r = &PanicError{Value: r, Stack: debug.Stack()}
			}
			mu.Lock()
			if *count == 0 {
				*first = r
			}
			*count++
			mu.Unlock()
			ok = false
		}
	}()
	for i := start; i < end; i++ {
		if ctx.Err() != nil {
			cancelled.Store(true)
			return false
		}
		fn(i)
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
