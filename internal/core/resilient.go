package core

import (
	"context"
	"errors"
	"sync"

	"repro/internal/exec"
	"repro/internal/resilience"
)

// Resilient evaluation: the core algorithms (sampling, labeling, the
// probabilistic executor, conjunction waves) evaluate UDFs only through a
// *Meter's EvalRows — one gated batch path. Per-row failure flags come
// back, an attached circuit breaker decides admissions segment by segment,
// and every caller excludes failed rows from its evidence (samples, labels,
// output) so a flaky UDF degrades a query instead of poisoning it. A meter
// over a plain UDF (NewMeter) takes the same path with no gate and a body
// that never fails.

// FallibleUDF is a row evaluator that can fail. Implementations perform
// their own retries (see resilience.Do); an error here is final for the
// row. A cancellation error (ctx.Err()) must be returned unwrapped so the
// meter can tell "this row failed" from "this batch is aborting".
type FallibleUDF interface {
	EvalErr(ctx context.Context, row int) (bool, error)
}

// infallible adapts a UDF that cannot fail to the meter's body (a panic
// still propagates).
type infallible struct{ udf UDF }

func (u *infallible) EvalErr(_ context.Context, row int) (bool, error) { return u.udf.Eval(row), nil }

// NewResilientMeter wraps a fallible row evaluator with the standard meter
// guarantees — call counting, single-flight memoization, an optional
// shared cross-query cache — plus failure semantics: a row whose
// evaluation ultimately fails (after the evaluator's own retries) is
// memoized as failed for the meter's lifetime, is never charged to Calls,
// never stored in the shared cache, and is recorded exactly once in the
// meter's ledger (Failures, Failure). gate, when non-nil, is consulted by
// EvalRows; denied rows resolve from the memo or cache when known and fail
// otherwise.
func NewResilientMeter(body FallibleUDF, cache EvalCache, gate exec.Gate) *Meter {
	return new(Meter).init(body, cache, gate)
}

// EvalRows evaluates rows through the meter on pool, honoring ctx. The
// batch runs gated (a nil gate admits it as one wave): verdicts and failure
// flags come back index-aligned with rows, and a failed row carries verdict
// false. On cancellation all outputs are withheld: (nil, nil, ctx.Err()).
func (m *Meter) EvalRows(ctx context.Context, pool *exec.Pool, rows []int) (verdicts, failed []bool, err error) {
	return pool.EvalRowsGatedCtx(ctx, rows, m.gate, m.evalFallible, m.resolveDenied)
}

// evalFallible is single-flight evaluation of the row through the meter's
// body, reporting (verdict, failed):
//
//   - a genuine failure memoizes the row as failed-final (every later
//     phase of the query sees the same exclusion), skips the charge and the
//     cache store, and is recorded in the ledger once;
//   - a cancellation (the batch is aborting) forgets the row — a later run
//     of the query must re-evaluate it;
//   - a panic forgets the row and propagates.
func (m *Meter) evalFallible(ctx context.Context, row int) (bool, bool) {
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
	v, err := m.body.EvalErr(ctx, row)
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

// resolveDenied resolves a breaker-denied row without invoking the UDF. A
// row whose outcome is already memoized or cached resolves normally (denial
// costs nothing); otherwise the row is memoized as failed-final so the
// whole query treats it consistently, and the ledger records it with
// resilience.ErrBreakerOpen.
func (m *Meter) resolveDenied(row int) (bool, bool) {
	sl, st := m.claim(row)
	if st == rowInFlight {
		m.fail(row, sl, resilience.ErrBreakerOpen)
		return false, true
	}
	return st == rowTrue, st == rowFailed
}

// failureLedger is a meter's record of the rows that failed for good. The
// meter settles each failed row exactly once (fail), so the counts are
// exact and — because which rows fail depends on the rows, not on
// scheduling — identical at any parallelism, like Calls. It keeps one
// failure to report: the lowest row whose body failed, else the lowest row
// a breaker denied, so the error names the cause, not whichever failure a
// worker happened to reach first.
type failureLedger struct {
	mu             sync.Mutex
	failed, denied int
	row            int
	err            error
	rowDenied      bool // the kept failure is a breaker denial
}

func (l *failureLedger) record(row int, err error) {
	denied := errors.Is(err, resilience.ErrBreakerOpen)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed++
	if denied {
		l.denied++
	}
	if l.err == nil || (l.rowDenied && !denied) || (l.rowDenied == denied && row < l.row) {
		l.row, l.err, l.rowDenied = row, err, denied
	}
}

// Failures returns how many rows failed for good — body failures and
// breaker denials alike — and how many of them a breaker denied.
func (m *Meter) Failures() (failed, denied int) {
	m.ledger.mu.Lock()
	defer m.ledger.mu.Unlock()
	return m.ledger.failed, m.ledger.denied
}

// Failure returns the failure to report for the meter: the lowest row whose
// body failed, else the lowest breaker-denied row, with its error. err is
// nil when no row failed.
func (m *Meter) Failure() (row int, err error) {
	m.ledger.mu.Lock()
	defer m.ledger.mu.Unlock()
	return m.ledger.row, m.ledger.err
}
