package exec

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// admitAll is a gate that admits every row, in segments of the given
// width (0: one wave), and does not allocate.
type admitAll struct {
	plan    []bool
	segment int
}

func (g *admitAll) Segment() int      { return g.segment }
func (g *admitAll) Plan(n int) []bool { return g.plan[:n] }
func (g *admitAll) Record([]bool)     {}

// errCounter is a live, cancellable context that counts its Err calls. On
// Go 1.24 each call locks the context's mutex, so a worker pool that asked
// it once per item would serialize its workers on that lock.
type errCounter struct {
	context.Context
	errs atomic.Int64
}

func (c *errCounter) Err() error {
	c.errs.Add(1)
	return c.Context.Err()
}

func newErrCounter(t *testing.T) (*errCounter, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return &errCounter{Context: ctx}, cancel
}

// TestLiveContextIsNeverAskedErr pins "no lock per row": while the context
// is live, neither a plain nor an all-admitted gated batch calls ctx.Err()
// at all; once it is cancelled, no item starts.
func TestLiveContextIsNeverAskedErr(t *testing.T) {
	const n = 10000
	rows := make([]int, n)
	gate := &admitAll{plan: make([]bool, n), segment: 1000}
	for i := range rows {
		rows[i], gate.plan[i] = i, true
	}
	for _, workers := range []int{1, 2} {
		pool := NewPool(workers)
		ctx, cancel := newErrCounter(t)
		var ran atomic.Int64
		if err := pool.ForEachCtx(ctx, n, func(int) { ran.Add(1) }); err != nil || ran.Load() != n {
			t.Fatalf("workers=%d: ran %d of %d items, err %v", workers, ran.Load(), n, err)
		}
		eval := func(_ context.Context, row int) (bool, bool) { return row%2 == 0, false }
		deny := func(int) (bool, bool) { panic("nothing is denied") }
		for _, g := range []Gate{nil, gate} {
			if _, _, err := pool.EvalRowsGatedCtx(ctx, rows, g, eval, deny); err != nil {
				t.Fatalf("workers=%d: gated batch: %v", workers, err)
			}
		}
		if got := ctx.errs.Load(); got != 0 {
			t.Fatalf("workers=%d: %d ctx.Err() calls under a live context, want 0", workers, got)
		}

		cancel()
		started := atomic.Bool{}
		if err := pool.ForEachCtx(ctx, n, func(int) { started.Store(true) }); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err %v after cancel, want context.Canceled", workers, err)
		}
		if _, _, err := pool.EvalRowsGatedCtx(ctx, rows, gate, func(context.Context, int) (bool, bool) {
			started.Store(true)
			return false, false
		}, deny); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: gated err %v after cancel, want context.Canceled", workers, err)
		}
		if started.Load() {
			t.Fatalf("workers=%d: an item started after the cancel", workers)
		}
		pool.Close()
	}
}

// waitFor polls cond until it holds, failing the test after a generous
// bound: goroutines that have signalled their exit may still be unwinding.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseWaitsForEveryWorker: Close lets a running batch finish and
// returns only once every goroutine the pool started has exited.
func TestCloseWaitsForEveryWorker(t *testing.T) {
	base := runtime.NumGoroutine()
	pool := NewPool(4)
	forEach(t, pool, 1000, func(int) {}) // its workers park on the pool
	if runtime.NumGoroutine() <= base {
		t.Fatal("no worker outlived its batch")
	}

	const workers = 4
	var started, finished atomic.Int64
	release := make(chan struct{})
	batch := make(chan error)
	go func() {
		batch <- pool.ForEachCtx(context.Background(), workers, func(int) {
			started.Add(1)
			<-release
			finished.Add(1)
		})
	}()
	waitFor(t, "every item in flight", func() bool { return started.Load() == workers })
	closed := make(chan int64)
	go func() {
		pool.Close()
		closed <- finished.Load()
	}()
	close(release)
	if got := <-closed; got != workers {
		t.Fatalf("Close returned with %d of %d in-flight items finished", got, workers)
	}
	if err := <-batch; err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the pool's goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
	pool.Close() // idempotent
}

// goid names the calling goroutine (the id runtime.Stack prints).
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestBatchesAfterAPanicReuseTheWorkers: the workers of a batch whose item
// panicked park like any others, and later batches run on them rather than
// on fresh goroutines.
func TestBatchesAfterAPanicReuseTheWorkers(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	var mu sync.Mutex
	ran := map[string]bool{}
	record := func(int) {
		id := goid()
		mu.Lock()
		ran[id] = true
		mu.Unlock()
	}
	func() {
		defer func() {
			if _, ok := recover().(*PanicError); !ok {
				t.Fatal("the item's panic did not reach the caller")
			}
		}()
		forEach(t, pool, 200, func(i int) {
			record(i)
			if i == 100 {
				panic("boom")
			}
		})
	}()
	const batches = 50
	for range batches {
		forEach(t, pool, 200, record)
	}
	// Fresh workers per batch would have meant two goroutines per batch; a
	// batch begun before the last one's workers parked may add one.
	if len(ran) >= batches {
		t.Fatalf("%d goroutines ran %d batches: workers were not reused", len(ran), batches+1)
	}
}

// TestConcurrentAndNestedBatchesComplete: batches from many goroutines at
// once, each item of which runs a batch of its own on the same pool, all
// complete — handing work to a worker never waits for one to park.
func TestConcurrentAndNestedBatchesComplete(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	const callers, outer, inner = 8, 50, 10
	var total atomic.Int64
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := pool.ForEachCtx(context.Background(), outer, func(int) {
				if err := pool.ForEachCtx(context.Background(), inner, func(int) { total.Add(1) }); err != nil {
					t.Error(err)
				}
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("concurrent nested batches deadlocked")
	}
	if got := total.Load(); got != callers*outer*inner {
		t.Fatalf("ran %d nested items, want %d", got, callers*outer*inner)
	}
}

func TestChunksAreWholeLinesOnlyWhenEveryWorkerGetsSeveral(t *testing.T) {
	for _, c := range []struct{ n, workers, want int }{
		{1024, 2, 128},      // exact_scan's batch: eight 128-row lines
		{1023, 2, 63},       // too few lines for four each: fine chunks
		{1024, 4, 32},       // likewise
		{45000, 2, 2688},    // rounded down to whole lines
		{100, 2, 6},         // a sampler top-up
		{3, 2, 1},           // at least one item
		{1 << 20, 3, 43648}, // 2^20/24 rounded down to lines
	} {
		if got := chunkSize(c.n, c.workers); got != c.want {
			t.Errorf("chunkSize(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

// BenchmarkForEachCtx runs exact_scan's evaluate shape — one pool per
// statement, 44 batches of 1,024 instant items — under context.Background()
// and under a live cancellable context, whose Err would take a lock. Run
// it at -cpu 1,2 to see what a second CPU buys at this grain.
func BenchmarkForEachCtx(b *testing.B) {
	const batches, rows = 44, 1024
	out := make([]bool, rows)
	item := func(i int) { out[i] = i&1 == 0 }
	for _, c := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
	}{
		{"background", func() (context.Context, context.CancelFunc) { return context.Background(), func() {} }},
		{"cancellable", func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			ctx, cancel := c.ctx()
			defer cancel()
			for i := 0; i < b.N; i++ {
				pool := NewPool(runtime.GOMAXPROCS(0))
				for range batches {
					if err := pool.ForEachCtx(ctx, rows, item); err != nil {
						b.Fatal(err)
					}
				}
				pool.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batches*rows), "ns/row")
		})
	}
}
