// Package resilience makes expensive-predicate invocation survivable: the
// paper's UDFs stand in for crowdsourced workers and remote ML services,
// which time out, error transiently and occasionally crash. This package
// provides the typed error taxonomy that decides retryability, capped
// exponential backoff with seeded deterministic jitter, per-call
// cooperative deadlines, a circuit breaker whose state machine advances on
// a logical call clock (so trips are bit-for-bit reproducible at any
// parallelism level), and a seeded chaos wrapper for fault-injection tests.
//
// Determinism is the organizing constraint. Nothing in this package draws
// from a shared RNG stream: retry jitter is a pure hash of
// (seed, key, attempt), chaos decisions are pure hashes of the value being
// evaluated and its per-value attempt index, and the breaker folds
// outcomes in batch order behind segment barriers (see Breaker). At a
// fixed seed and fault schedule the same rows fail, the same retries
// happen and the same trips fire whether a query runs on one worker or
// sixty-four.
package resilience

import (
	"errors"
	"fmt"
)

// Kind classifies a UDF invocation failure; it decides retryability.
type Kind uint8

const (
	// Transient failures (network blips, 5xx-style errors, injected chaos)
	// are worth retrying.
	Transient Kind = iota
	// Permanent failures (bad input, 4xx-style rejections) never succeed on
	// retry; the row fails immediately.
	Permanent
	// Timeout marks an attempt that exceeded its per-call deadline.
	// Retryable: the next attempt may be faster.
	Timeout
	// Panic marks a UDF body that panicked. Not retryable: a crash is a
	// bug, and re-running a buggy body buys nothing but another crash.
	Panic
)

// String names the kind for error text and stats.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case Timeout:
		return "timeout"
	case Panic:
		return "panic"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Error is a classified invocation failure.
type Error struct {
	Kind Kind
	// Op names the failing operation (e.g. "udf:sentiment"); may be empty.
	Op  string
	Err error
	// Stack holds the panicking goroutine's stack for Kind == Panic.
	Stack []byte
}

// New builds a classified error.
func New(kind Kind, op string, err error) *Error {
	return &Error{Kind: kind, Op: op, Err: err}
}

// NewPanicError captures a recovered panic value and its stack as a typed,
// non-retryable error.
func NewPanicError(op string, value any, stack []byte) *Error {
	return &Error{Kind: Panic, Op: op, Err: fmt.Errorf("panic: %v", value), Stack: stack}
}

// Error implements error.
func (e *Error) Error() string {
	msg := e.Kind.String()
	if e.Op != "" {
		msg = e.Op + ": " + msg
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// ErrBreakerOpen reports an invocation denied by an open circuit breaker.
// Never retried; under the degrade policy the row counts as failed.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// Classify maps an arbitrary error to a Kind. Typed errors report their
// own kind; anything unrecognized defaults to Transient, so plain errors
// from user UDF bodies get the benefit of a retry.
func Classify(err error) Kind {
	var re *Error
	if errors.As(err, &re) {
		return re.Kind
	}
	return Transient
}

// Retryable reports whether another attempt could plausibly succeed.
func Retryable(err error) bool {
	if errors.Is(err, ErrBreakerOpen) {
		return false
	}
	switch Classify(err) {
	case Transient, Timeout:
		return true
	default:
		return false
	}
}
