package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exec"
	"repro/internal/resilience"
	"repro/internal/stats"
)

// fallibleFunc adapts a func to FallibleUDF.
type fallibleFunc func(ctx context.Context, row int) (bool, error)

func (f fallibleFunc) EvalErr(ctx context.Context, row int) (bool, error) { return f(ctx, row) }

func TestResilientMeterFailureMemoizedOnce(t *testing.T) {
	var calls int
	var mu sync.Mutex
	m := NewResilientMeter(fallibleFunc(func(_ context.Context, row int) (bool, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		if row == 7 {
			return false, errors.New("broken row")
		}
		return true, nil
	}), nil, nil)

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		v, failed := m.evalFallible(ctx, 7)
		if v || !failed {
			t.Fatalf("pass %d: got (%v, %v), want failed with verdict false", i, v, failed)
		}
	}
	if v, failed := m.evalFallible(ctx, 8); !v || failed {
		t.Fatalf("healthy row: got (%v, %v)", v, failed)
	}
	if failed, denied := m.Failures(); failed != 1 || denied != 0 {
		t.Errorf("Failures() = (%d, %d), want (1, 0) (failed-final memoization)", failed, denied)
	}
	if row, err := m.Failure(); row != 7 || err == nil {
		t.Errorf("Failure() = (%d, %v), want row 7", row, err)
	}
	if calls != 2 {
		t.Errorf("body invoked %d times, want 2 (row 7 once + row 8 once)", calls)
	}
	if got := m.Calls(); got != 1 {
		t.Errorf("Calls() = %d, want 1 — failed rows are never charged", got)
	}
}

func TestResilientMeterFailureNotStoredInSharedCache(t *testing.T) {
	cache := NewSharedEvalCache()
	m := NewResilientMeter(fallibleFunc(func(_ context.Context, row int) (bool, error) {
		if row == 3 {
			return false, errors.New("flaky")
		}
		return true, nil
	}), cache, nil)
	ctx := context.Background()
	m.evalFallible(ctx, 3)
	m.evalFallible(ctx, 4)
	if _, ok := cache.Lookup(3); ok {
		t.Error("failed row leaked into the shared cache")
	}
	if v, ok := cache.Lookup(4); !ok || !v {
		t.Error("healthy row missing from the shared cache")
	}
}

func TestResilientMeterCancellationForgetsRow(t *testing.T) {
	var calls int
	m := NewResilientMeter(fallibleFunc(func(ctx context.Context, _ int) (bool, error) {
		calls++
		if err := ctx.Err(); err != nil {
			return false, err
		}
		return true, nil
	}), nil, nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, failed := m.evalFallible(ctx, 1); !failed {
		t.Fatal("cancelled evaluation should report failed (withheld)")
	}
	if failed, _ := m.Failures(); failed != 0 {
		t.Fatalf("cancellation recorded %d failures, want none", failed)
	}
	// A fresh context re-evaluates: the row was forgotten, not failed-final.
	if v, failed := m.evalFallible(context.Background(), 1); !v || failed {
		t.Fatalf("re-run after cancel: got (%v, %v), want a fresh successful evaluation", v, failed)
	}
	if calls != 2 {
		t.Errorf("body invoked %d times, want 2", calls)
	}
}

func TestResolveDeniedServesMemoAndCache(t *testing.T) {
	cache := NewSharedEvalCache()
	cache.Store(5, true)
	m := NewResilientMeter(fallibleFunc(func(_ context.Context, _ int) (bool, error) {
		return true, nil
	}), cache, nil)

	// Row 1: evaluated first, then denied — memo serves it.
	m.evalFallible(context.Background(), 1)
	if v, failed := m.resolveDenied(1); !v || failed {
		t.Fatalf("memoized row denied: got (%v, %v), want served from memo", v, failed)
	}
	// Row 5: cached cross-query — cache serves it.
	if v, failed := m.resolveDenied(5); !v || failed {
		t.Fatalf("cached row denied: got (%v, %v), want served from cache", v, failed)
	}
	// Row 9: unknown — fails, recorded as a breaker denial.
	if v, failed := m.resolveDenied(9); v || !failed {
		t.Fatalf("unknown row denied: got (%v, %v), want failure", v, failed)
	}
	// The failure is final: a later gated segment that would admit row 9
	// still sees it failed (per-query consistency).
	if v, failed := m.evalFallible(context.Background(), 9); v || !failed {
		t.Fatalf("row 9 after denial: got (%v, %v), want the memoized failure", v, failed)
	}
	if failed, denied := m.Failures(); failed != 1 || denied != 1 {
		t.Errorf("Failures() = (%d, %d), want (1, 1)", failed, denied)
	}
	if row, err := m.Failure(); row != 9 || !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Errorf("Failure() = (%d, %v), want row 9 with ErrBreakerOpen", row, err)
	}
}

func TestPlainMeterEvalRowsNeverFails(t *testing.T) {
	m := NewMeter(UDFFunc(func(row int) bool { return row%2 == 0 }))
	v, f, err := m.EvalRows(context.Background(), exec.NewPool(2), []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false, true, false} {
		if v[i] != want || f[i] {
			t.Fatalf("row %d: (%v, %v), want (%v, false)", i, v[i], f[i], want)
		}
	}
	if failed, _ := m.Failures(); failed != 0 || m.Calls() != 4 {
		t.Fatalf("plain meter: %d failures, %d calls", failed, m.Calls())
	}
}

func TestEvalRowsWithBreakerDeterministic(t *testing.T) {
	// 60 rows; rows 10..29 fail. The breaker (window 8, min 4, rate 0.5,
	// segment 8) trips during the failure run; denied rows resolve as
	// failures. At any parallelism the verdict/failed slices and the trip
	// count must match, because Plan/Record run on the batch spine.
	rows := make([]int, 60)
	for i := range rows {
		rows[i] = i
	}
	run := func(workers int) ([]bool, []bool, int64) {
		b := resilience.NewBreaker(resilience.BreakerConfig{
			Window: 8, MinCalls: 4, FailureRate: 0.5, Cooldown: 8, Probes: 2, Segment: 8,
		})
		m := NewResilientMeter(fallibleFunc(func(_ context.Context, row int) (bool, error) {
			if row >= 10 && row < 30 {
				return false, errors.New("down")
			}
			return true, nil
		}), nil, b)
		v, f, err := m.EvalRows(context.Background(), exec.NewPool(workers), rows)
		if err != nil {
			t.Fatal(err)
		}
		return v, f, b.Trips()
	}
	v1, f1, trips1 := run(1)
	v8, f8, trips8 := run(8)
	if trips1 == 0 {
		t.Fatal("breaker never tripped — the scenario is miscalibrated")
	}
	if trips1 != trips8 {
		t.Fatalf("trips differ across parallelism: %d vs %d", trips1, trips8)
	}
	for i := range rows {
		if v1[i] != v8[i] || f1[i] != f8[i] {
			t.Fatalf("row %d differs across parallelism: (%v,%v) vs (%v,%v)", i, v1[i], f1[i], v8[i], f8[i])
		}
	}
	// Healthy prefix evaluated normally.
	for i := 0; i < 10; i++ {
		if !v1[i] || f1[i] {
			t.Fatalf("healthy row %d: (%v, %v)", i, v1[i], f1[i])
		}
	}
	// Every row in the failure run is excluded, one way or the other.
	for i := 10; i < 30; i++ {
		if v1[i] || !f1[i] {
			t.Fatalf("failing row %d: (%v, %v), want failed", i, v1[i], f1[i])
		}
	}
}

// denyEveryFourth is a stateless gate: one wave per batch, denying the
// batch positions ≡ 3 (mod 4). Safe for the concurrent batches below.
type denyEveryFourth struct{}

func (denyEveryFourth) Segment() int  { return 0 }
func (denyEveryFourth) Record([]bool) {}
func (denyEveryFourth) Plan(n int) []bool {
	allowed := make([]bool, n)
	for k := range allowed {
		allowed[k] = k%4 != 3
	}
	return allowed
}

// TestMeterLedgerConcurrentEvalRows drives one meter from concurrent
// EvalRows batches over overlapping, differently ordered row lists, with
// rows whose body fails, rows the gate always denies, and rows whose first
// attempt is cancelled. The ledger must count every failed and every denied
// row exactly once, never count a cancelled row, and keep the lowest
// body-failed row even though a lower row was denied.
func TestMeterLedgerConcurrentEvalRows(t *testing.T) {
	const n = 2000 // rows ≡ 3 (mod 4) are the denied class
	class := func(row int) string {
		switch {
		case row%4 == 3:
			return "denied"
		case row%12 == 5:
			return "fails"
		case row%12 == 2:
			return "cancelled-once"
		}
		return "ok"
	}
	truth := func(row int) bool { return row%5 == 0 }
	attempts := make([]atomic.Int32, n)
	m := NewResilientMeter(fallibleFunc(func(_ context.Context, row int) (bool, error) {
		first := attempts[row].Add(1) == 1
		runtime.Gosched() // widen the in-flight window so others find the row claimed
		switch class(row) {
		case "fails":
			return false, errors.New("broken row")
		case "cancelled-once":
			if first {
				return false, context.Canceled
			}
		}
		return truth(row), nil
	}), nil, denyEveryFourth{})

	// Each list is a fresh shuffle with the denied class at the denied
	// positions, so every row keeps its class in every batch.
	var denied, others []int
	for row := 0; row < n; row++ {
		if class(row) == "denied" {
			denied = append(denied, row)
		} else {
			others = append(others, row)
		}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		rng := stats.NewRNG(uint64(g) + 1)
		d, o := append([]int(nil), denied...), append([]int(nil), others...)
		rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
		rng.Shuffle(len(o), func(i, j int) { o[i], o[j] = o[j], o[i] })
		list := make([]int, 0, n)
		for k := range d {
			list = append(list, o[3*k], o[3*k+1], o[3*k+2], d[k])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := exec.NewPool(4)
			for start := 0; start < len(list); start += 64 {
				batch := list[start:min(start+64, len(list))]
				v, f, err := m.EvalRows(context.Background(), pool, batch)
				if err != nil {
					t.Error(err)
					return
				}
				for i, row := range batch {
					switch c := class(row); {
					case c == "denied" || c == "fails":
						if v[i] || !f[i] {
							t.Errorf("%s row %d: (%v, %v), want failed", c, row, v[i], f[i])
						}
					case c == "cancelled-once" && f[i]:
						// the cancelled attempt: withheld, and retried later
					case v[i] != truth(row) || f[i]:
						t.Errorf("%s row %d: (%v, %v), want (%v, false)", c, row, v[i], f[i], truth(row))
					}
				}
			}
		}()
	}
	wg.Wait()

	wantFailed, wantCalls := 0, 0
	for row := 0; row < n; row++ {
		wantAttempts := int32(1)
		switch class(row) {
		case "denied":
			wantFailed++
			wantAttempts = 0
		case "fails":
			wantFailed++
		case "cancelled-once":
			wantAttempts = 2
			wantCalls++
		default:
			wantCalls++
		}
		if a := attempts[row].Load(); a != wantAttempts {
			t.Errorf("%s row %d: body ran %d times, want %d", class(row), row, a, wantAttempts)
		}
	}
	if failed, deniedN := m.Failures(); failed != wantFailed || deniedN != len(denied) {
		t.Errorf("Failures() = (%d, %d), want (%d, %d)", failed, deniedN, wantFailed, len(denied))
	}
	if m.Calls() != wantCalls {
		t.Errorf("Calls() = %d, want %d", m.Calls(), wantCalls)
	}
	// Row 3 was denied, row 5 is the lowest body failure: the cause wins.
	if row, err := m.Failure(); row != 5 || err == nil || errors.Is(err, resilience.ErrBreakerOpen) {
		t.Errorf("Failure() = (%d, %v), want the body failure on row 5", row, err)
	}
}
