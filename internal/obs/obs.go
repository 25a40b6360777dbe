// Package obs is the repository's dependency-free observability layer:
// a wall-clock facade, a hand-rolled metrics registry with Prometheus
// text exposition, and lightweight per-query traces.
//
// Spans: Timed(ctx, name, fn) is the only way to open a span. It runs fn
// inside a span on the trace ctx carries (WithTrace; none, no span), closes
// the span in a defer and returns fn's wall time, which is also what feeds
// EXPLAIN ANALYZE's elapsed fields — one clock pair per interval. Trace
// exports no method that returns an open span, so a span left unclosed on
// some path is not expressible outside this package.
//
// Determinism contract: obs is the single package sanctioned to read the
// wall clock (see internal/lint/config.go — the detrand analyzer flags
// time.Now/Since/Until everywhere else in result-producing code). Timing
// data produced here is display-only: nothing derived from a clock may
// influence query results, plans, or persisted state. EXPLAIN ANALYZE
// count fields are computed from deterministic engine counters and are
// bit-identical at any parallelism; only the elapsed fields come from
// this package and are excluded from determinism comparisons.
package obs

import "time"

// Now returns the current wall-clock time. It exists so that every clock
// read in the tree flows through this package, keeping result-producing
// packages clock-free under the detrand lint.
func Now() time.Time { return time.Now() }

// Since returns the elapsed wall time since start. Display-only by
// contract: callers must not let the returned duration influence results.
func Since(start time.Time) time.Duration { return time.Since(start) }
