package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync/atomic"

	"repro/internal/resilience"
	"repro/internal/table"
)

// Resilient invocation wiring: every UDF call the engine issues goes
// through a rowInvoker — panic capture at the invocation boundary, per-call
// deadline, retry with deterministic backoff (resilience.Do), a shared
// per-(table, UDF) circuit breaker — and each query decides via its
// FailurePolicy what a row whose invocation ultimately fails means.

// policyFor resolves the effective failure policy for a query: the query's
// own, else the engine default, else FailOnError.
func (e *Engine) policyFor(q Query) FailurePolicy {
	if q.OnFailure != "" {
		return q.OnFailure
	}
	if e.OnFailure != "" {
		return e.OnFailure
	}
	return FailOnError
}

// retryPolicy resolves the engine's retry policy, seeding the jitter from
// the engine seed unless the operator pinned one.
func (e *Engine) retryPolicy() resilience.Policy {
	p := e.Retry
	if p.Seed == 0 {
		p.Seed = e.seed
	}
	return p
}

// rowInvoker adapts one bound predicate to the core fallible-UDF interface:
// fetch the argument cell, invoke the body under the retry policy with
// panics captured into typed errors, fold the "= 0/1" comparison on
// success. It implements core.FallibleUDF.
type rowInvoker struct {
	udfName string
	body    UDFBodyErr
	col     table.Column
	want    bool
	policy  resilience.Policy
	// key salts the per-row retry-jitter stream so two predicates never
	// share backoff schedules.
	key uint64
	// retries counts the extra attempts invocations made; like the meter's
	// counters it is a per-row sum, so identical at any parallelism.
	retries atomic.Int64
}

// EvalErr implements core.FallibleUDF. Cancellation errors pass through
// unwrapped (the meter treats them as a batch abort, not a row failure).
func (r *rowInvoker) EvalErr(ctx context.Context, row int) (bool, error) {
	v, attempts, err := resilience.Do(ctx, r.policy, r.key^resilience.Mix64(uint64(row)),
		func(ctx context.Context) (out bool, rerr error) {
			defer func() {
				if rec := recover(); rec != nil {
					rerr = resilience.NewPanicError("udf:"+r.udfName, rec, debug.Stack())
				}
			}()
			raw, err := r.body(ctx, r.col.Value(row))
			if err != nil {
				return false, err
			}
			return raw == r.want, nil
		})
	if attempts > 1 {
		r.retries.Add(int64(attempts - 1))
	}
	return v, err
}

// failure is the error a FailOnError statement reports once execution
// finishes: the first predicate, in query order, whose meter recorded a
// failed row, naming that meter's lowest failed row (a body failure before
// a breaker denial) — the same row at any parallelism. Under the skip and
// degrade policies failed rows are excluded instead, and failure is nil.
func (st *pipeState) failure() error {
	if st.policy != FailOnError {
		return nil
	}
	for _, p := range st.preds {
		row, err := p.meter.Failure()
		if err == nil {
			continue
		}
		var re *resilience.Error
		if errors.As(err, &re) && re.Kind == resilience.Panic {
			// Wrap the typed error (not just its message) so callers can
			// errors.As to the panic kind; the text keeps the historical
			// "panicked on row" shape.
			return fmt.Errorf("engine: UDF %q panicked on row %d: %w", p.spec.UDFName, row, re)
		}
		return fmt.Errorf("engine: UDF %q failed on row %d: %w", p.spec.UDFName, row, err)
	}
	return nil
}

// breakerKey identifies one shared circuit breaker.
type breakerKey struct {
	table string
	udf   string
}

// breakerFor returns (creating on first use) the circuit breaker shared by
// every query invoking udfName against tableName. Sharing across queries is
// the point: a UDF backed by a failing remote service should stay tripped
// for the next query too.
func (e *Engine) breakerFor(tableName, udfName string) *resilience.Breaker {
	e.breakerMu.Lock()
	defer e.breakerMu.Unlock()
	key := breakerKey{table: tableName, udf: udfName}
	b, ok := e.breakers[key]
	if !ok {
		b = resilience.NewBreaker(e.Breaker)
		e.breakers[key] = b
	}
	return b
}

// BreakerStatus is one circuit breaker's observable state. The JSON tags
// are predsqld's GET /stats "breakers" entry.
type BreakerStatus struct {
	Table string `json:"table"`
	UDF   string `json:"udf"`
	State string `json:"state"`
	Trips int64  `json:"trips"`
}

// BreakerStatuses reports every circuit breaker the engine has created, in
// (table, UDF) order.
func (e *Engine) BreakerStatuses() []BreakerStatus {
	e.breakerMu.Lock()
	keys := make([]breakerKey, 0, len(e.breakers))
	for k := range e.breakers {
		keys = append(keys, k)
	}
	breakers := make([]*resilience.Breaker, len(keys))
	for i, k := range keys {
		breakers[i] = e.breakers[k]
	}
	e.breakerMu.Unlock()
	out := make([]BreakerStatus, len(keys))
	for i, k := range keys {
		out[i] = BreakerStatus{Table: k.table, UDF: k.udf, State: breakers[i].State().String(), Trips: breakers[i].Trips()}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Table != out[b].Table {
			return out[a].Table < out[b].Table
		}
		return out[a].UDF < out[b].UDF
	})
	return out
}
