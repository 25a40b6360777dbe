package exec

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNewPoolDefaults(t *testing.T) {
	if got := NewPool(0).workers; got != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewPool(0) workers %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := NewPool(-3).workers; got != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewPool(-3) workers %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := NewPool(7).workers; got != 7 {
		t.Fatalf("NewPool(7) workers %d", got)
	}
	// Oversubscription beyond GOMAXPROCS is deliberate (I/O-bound UDFs).
	if got := NewPool(1000).workers; got != 1000 {
		t.Fatalf("NewPool(1000) workers %d", got)
	}
}

// forEach runs a batch under a context that never ends, so it must complete.
func forEach(t *testing.T, p *Pool, n int, fn func(i int)) {
	t.Helper()
	if err := p.ForEachCtx(context.Background(), n, fn); err != nil {
		t.Fatal(err)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 10000
		counts := make([]atomic.Int32, n)
		forEach(t, NewPool(workers), n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachSequentialOrder(t *testing.T) {
	// Parallelism 1 must preserve strict index order on the calling
	// goroutine — the legacy-behavior contract.
	var order []int
	forEach(t, NewPool(1), 100, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
	if len(order) != 100 {
		t.Fatalf("visited %d of 100", len(order))
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	called := false
	forEach(t, NewPool(4), 0, func(int) { called = true })
	forEach(t, NewPool(4), -5, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty batch")
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 8} {
		func() {
			defer func() {
				pe, ok := recover().(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: recovered non-PanicError", workers)
				}
				if pe.Value != "boom" {
					t.Fatalf("workers=%d: panic value %v, want boom", workers, pe.Value)
				}
				// The stack must point at the panicking work item, not at
				// the pool's re-panic site.
				if !strings.Contains(string(pe.Stack), "TestForEachPanicPropagates") {
					t.Fatalf("workers=%d: stack does not reach the panicking fn:\n%s", workers, pe.Stack)
				}
				if !strings.Contains(pe.Error(), "boom") {
					t.Fatalf("workers=%d: Error() lost the panic value: %q", workers, pe.Error())
				}
			}()
			forEach(t, NewPool(workers), 100, func(i int) {
				if i == 37 {
					panic("boom")
				}
			})
			t.Fatalf("workers=%d: no panic", workers)
		}()
	}
}

func TestForEachPanicStopsClaimingWork(t *testing.T) {
	// After an early panic, the batch must not be fully drained: workers
	// stop claiming chunks once the panic is recorded. Run enough items
	// that full drainage would be detected reliably.
	const n = 100000
	var executed atomic.Int64
	func() {
		defer func() { _ = recover() }()
		forEach(t, NewPool(4), n, func(i int) {
			if i == 0 {
				panic("early")
			}
			executed.Add(1)
		})
	}()
	if got := executed.Load(); got >= n-1 {
		t.Fatalf("all %d items ran despite early panic", got)
	}
}

func TestForEachConcurrencyCap(t *testing.T) {
	const workers = 4
	var cur, peak atomic.Int32
	var mu sync.Mutex
	forEach(t, NewPool(workers), 200, func(int) {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		cur.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent invocations, cap %d", p, workers)
	}
}

func TestEvalRowsOrder(t *testing.T) {
	rows := []int{5, 3, 8, 1, 9, 2}
	got, err := NewPool(8).EvalRowsCtx(context.Background(), rows, func(r int) bool { return r%2 == 1 })
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("verdicts %v, want %v", got, want)
		}
	}
	if out, err := NewPool(3).EvalRowsCtx(context.Background(), nil, func(int) bool { return true }); err != nil || len(out) != 0 {
		t.Fatalf("empty input produced %v, %v", out, err)
	}
}

func TestForEachCtxNilErrorOnCompletion(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := NewPool(workers).ForEachCtx(context.Background(), 500, func(int) { ran.Add(1) })
		if err != nil {
			t.Fatalf("workers=%d: err %v", workers, err)
		}
		if ran.Load() != 500 {
			t.Fatalf("workers=%d: ran %d of 500", workers, ran.Load())
		}
	}
}

func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		called := atomic.Bool{}
		err := NewPool(workers).ForEachCtx(ctx, 100, func(int) { called.Store(true) })
		if err != context.Canceled {
			t.Fatalf("workers=%d: err %v, want context.Canceled", workers, err)
		}
		if called.Load() {
			t.Fatalf("workers=%d: fn ran under a dead context", workers)
		}
	}
}

func TestForEachCtxCancelStopsPromptly(t *testing.T) {
	// Items block until released; after a cancel each worker may finish only
	// the one item it had in flight, so the executed count is bounded by
	// (items started before cancel) ≤ workers.
	const workers, n = 4, 100000
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	firstIn := make(chan struct{}, 1)
	err := func() error {
		go func() {
			<-firstIn
			cancel()
			close(release)
		}()
		return NewPool(workers).ForEachCtx(ctx, n, func(int) {
			if started.Add(1) == 1 {
				firstIn <- struct{}{}
			}
			<-release
		})
	}()
	if err != context.Canceled {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	// Each worker had at most one item in flight when the cancel landed;
	// nothing new may start afterwards beyond those already claimed.
	if got := started.Load(); got > workers {
		t.Fatalf("%d items ran; cancellation allows at most %d in-flight", got, workers)
	}
}

func TestEvalRowsCtxWithholdsPartialVerdicts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rows := make([]int, 1000)
	for i := range rows {
		rows[i] = i
	}
	var n atomic.Int64
	out, err := NewPool(2).EvalRowsCtx(ctx, rows, func(r int) bool {
		if n.Add(1) == 10 {
			cancel()
		}
		return true
	})
	if err != context.Canceled {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("cancelled batch returned verdicts %v", out[:5])
	}
	// Sequential path too.
	ctx2, cancel2 := context.WithCancel(context.Background())
	var m int
	out, err = NewPool(1).EvalRowsCtx(ctx2, rows, func(r int) bool {
		m++
		if m == 5 {
			cancel2()
		}
		return true
	})
	if err != context.Canceled || out != nil {
		t.Fatalf("sequential cancel: out %v err %v", out, err)
	}
	if m != 5 {
		t.Fatalf("sequential path ran %d items past the cancel", m)
	}
}
