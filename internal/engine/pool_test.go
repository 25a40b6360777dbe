package engine

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/table"
)

// TestStatementPoolReleasesItsWorkers: a statement's workers outlive each
// batch but not the statement. Whichever way it ends — finished, cancelled,
// failed by a panicking UDF, or stopped early by its sink — the goroutine
// count returns to what it was before.
func TestStatementPoolReleasesItsWorkers(t *testing.T) {
	e, truth, _ := newTestEngine(t, 3000)
	e.Parallelism = 4 // workers even on a 1-CPU host
	e.BatchSize = 256
	e.CacheUDFResults = false
	var cancelAt atomic.Int64
	var cancel atomic.Pointer[context.CancelFunc]
	if err := e.RegisterUDF(UDF{Name: "cancels", Body: pure(func(v table.Value) bool {
		if cancelAt.Add(-1) == 0 {
			(*cancel.Load())()
		}
		return truth[v.(int64)]
	})}); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterUDF(UDF{Name: "explodes", Body: pure(func(v table.Value) bool {
		if v.(int64) == 2000 {
			panic("boom")
		}
		return truth[v.(int64)]
	})}); err != nil {
		t.Fatal(err)
	}
	query := func(udf string, a *Approx) Query {
		q := Query{Table: "loans", Predicates: []Conjunct{{UDFName: udf, UDFArg: "id", Want: true}}, Approx: a}
		if a != nil {
			q.GroupOn = "grade"
		}
		return q
	}
	cases := []struct {
		name    string
		run     func(ctx context.Context) error
		wantErr func(error) bool
	}{
		{"exact finishes", func(ctx context.Context) error {
			_, err := e.ExecuteContext(ctx, query("good_credit", nil))
			return err
		}, nil},
		{"approximate finishes", func(ctx context.Context) error {
			_, err := e.ExecuteContext(ctx, query("good_credit", approx(0.8, 0.8, 0.8)))
			return err
		}, nil},
		{"cancelled mid-scan", func(ctx context.Context) error {
			ctx, c := context.WithCancel(ctx)
			defer c()
			cancel.Store(&c)
			cancelAt.Store(1000)
			_, err := e.ExecuteContext(ctx, query("cancels", nil))
			return err
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"panicking UDF", func(ctx context.Context) error {
			_, err := e.ExecuteContext(ctx, query("explodes", nil))
			return err
		}, func(err error) bool { return err != nil }},
		{"stopped early by the sink", func(ctx context.Context) error {
			_, err := e.ExecuteStreamContext(ctx, query("good_credit", nil), func([]int) error { return ErrStopStream })
			return err
		}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			err := c.run(context.Background())
			if c.wantErr == nil && err != nil || c.wantErr != nil && !c.wantErr(err) {
				t.Fatalf("statement ended with %v", err)
			}
			// Close has waited for every worker to signal its exit; the last
			// may still be unwinding, so poll, within a bound.
			for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the statement, %d before", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
