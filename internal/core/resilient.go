package core

import (
	"context"
	"errors"

	"repro/internal/exec"
	"repro/internal/resilience"
)

// Resilient evaluation: the core algorithms (sampling, labeling, the
// probabilistic executor, conjunction waves) evaluate UDFs through the
// EvalRowsResilient helper below. For a plain UDF it degenerates to the
// classic pooled batch — zero overhead, nil failure flags. For a
// ResilientUDF (in practice: a Meter built with NewResilientMeter) the
// batch runs gated: per-row failure flags come back, an attached circuit
// breaker decides admissions segment by segment, and every caller excludes
// failed rows from its evidence (samples, labels, output) so a flaky UDF
// degrades a query instead of poisoning it.

// FallibleUDF is a row evaluator that can fail. Implementations perform
// their own retries (see resilience.Do); an error here is final for the
// row. A cancellation error (ctx.Err()) must be returned unwrapped so the
// meter can tell "this row failed" from "this batch is aborting".
type FallibleUDF interface {
	EvalErr(ctx context.Context, row int) (bool, error)
}

// ResilientUDF is a UDF that distinguishes failed evaluations and
// optionally carries a circuit-breaker gate. *Meter implements it when
// built with NewResilientMeter.
type ResilientUDF interface {
	UDF
	// Resilient reports whether evaluations can actually fail. Every *Meter
	// carries these methods, so EvalRowsResilient uses this — not the type
	// assertion alone — to decide between the gated and the plain batch.
	Resilient() bool
	// EvalFallible evaluates the row, reporting (verdict, failed). A failed
	// row always carries verdict false.
	EvalFallible(ctx context.Context, row int) (verdict, failed bool)
	// ResolveDenied resolves a breaker-denied row without invoking: from
	// the memo or shared cache when the outcome is already known, else as a
	// failure.
	ResolveDenied(row int) (verdict, failed bool)
	// Gate returns the circuit breaker steering gated batches (nil = none).
	Gate() exec.Gate
}

// EvalRowsResilient evaluates rows under udf honoring ctx. When udf is
// resilient the batch runs gated and the second slice flags failed rows;
// otherwise it is a plain pooled batch and the failure slice is nil. On
// cancellation all outputs are withheld: (nil, nil, ctx.Err()).
func EvalRowsResilient(ctx context.Context, pool *exec.Pool, rows []int, udf UDF) ([]bool, []bool, error) {
	if r, ok := udf.(ResilientUDF); ok && r.Resilient() {
		return pool.EvalRowsGatedCtx(ctx, rows, r.Gate(), r.EvalFallible, r.ResolveDenied)
	}
	verdicts, err := pool.EvalRowsCtx(ctx, rows, udf.Eval)
	if err != nil {
		return nil, nil, err
	}
	return verdicts, nil, nil
}

// NewResilientMeter wraps a fallible row evaluator with the standard meter
// guarantees — call counting, single-flight memoization, an optional
// shared cross-query cache — plus failure semantics: a row whose
// evaluation ultimately fails (after the evaluator's own retries) is
// memoized as failed for the meter's lifetime, is never charged to Calls,
// never stored in the shared cache, and is reported exactly once through
// onFailure. gate, when non-nil, is consulted by gated batch evaluation
// (EvalRowsResilient); denied rows resolve from the memo or cache when
// known and fail otherwise. Both gate and onFailure may be nil.
func NewResilientMeter(fudf FallibleUDF, cache EvalCache, gate exec.Gate, onFailure func(row int, err error)) *Meter {
	m := &Meter{fudf: fudf, shared: cache, gate: gate, onFailure: onFailure}
	m.rows.init()
	return m
}

// Gate implements ResilientUDF.
func (m *Meter) Gate() exec.Gate { return m.gate }

// Resilient implements ResilientUDF: a plain meter (no fallible body, no
// gate) reports false so EvalRowsResilient keeps the plain pooled batch.
func (m *Meter) Resilient() bool { return m.fudf != nil || m.gate != nil }

// EvalFallible implements ResilientUDF: single-flight evaluation of the
// row through the meter's body. A plain body cannot fail (a panic
// propagates). A fallible body's failure handling:
//
//   - a genuine failure memoizes the row as failed-final (every later
//     phase of the query sees the same exclusion), skips the charge and the
//     cache store, and fires onFailure once;
//   - a cancellation (the batch is aborting) forgets the row — a later run
//     of the query must re-evaluate it.
func (m *Meter) EvalFallible(ctx context.Context, row int) (bool, bool) {
	sl, st := m.claim(row)
	if st != rowInFlight {
		return st == rowTrue, st == rowFailed
	}
	// A panicking body must not leave the row claimed forever; the panic
	// still propagates to our caller.
	returned := false
	defer func() {
		if !returned {
			m.forget(sl)
		}
	}()
	var v bool
	var err error
	if m.fudf == nil {
		v = m.udf.Eval(row)
	} else {
		v, err = m.fudf.EvalErr(ctx, row)
	}
	returned = true
	switch {
	case err == nil:
		m.calls.Add(1)
		m.rows.release(sl, verdictState(v))
		if m.shared != nil {
			m.shared.Store(row, v)
		}
		return v, false
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		m.forget(sl) // batch abort, not a row failure
	default:
		m.fail(row, sl, err)
	}
	return false, true
}

// ResolveDenied implements ResilientUDF: resolve a breaker-denied row
// without invoking the UDF. A row whose outcome is already memoized or
// cached resolves normally (denial costs nothing); otherwise the row is
// memoized as failed-final so the whole query treats it consistently, and
// onFailure fires with resilience.ErrBreakerOpen.
func (m *Meter) ResolveDenied(row int) (bool, bool) {
	sl, st := m.claim(row)
	if st == rowInFlight {
		m.fail(row, sl, resilience.ErrBreakerOpen)
		return false, true
	}
	return st == rowTrue, st == rowFailed
}
