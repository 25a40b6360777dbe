package obs

import (
	"context"
	"sync"
	"time"
)

// Trace collects the spans of one query: create one, attach it with
// WithTrace, export it with Spans. A nil *Trace is a valid no-op sink, so
// instrumented code pays only a nil check when tracing is off. Span timings
// are display-only diagnostics: they never feed back into planning or
// results.
type Trace struct {
	mu    sync.Mutex
	start time.Time
	spans []*span
}

// span is one timed phase inside a trace. Only Timed opens and closes one.
type span struct {
	tr    *Trace
	name  string
	start time.Time
	dur   time.Duration
	done  bool
}

// SpanJSON is the wire form of a finished span: offsets and durations in
// microseconds relative to the trace start.
type SpanJSON struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// NewTrace starts an empty trace anchored at the current time.
func NewTrace() *Trace {
	return &Trace{start: Now()}
}

// Timed is the one way to open a span: it runs fn inside a span named name
// on the trace ctx carries (no trace, no span) and returns fn's wall time.
// The span opens before fn and closes in a defer, so it is closed on every
// path out of fn — a panic included — and a caller cannot leave one open.
// The span's duration and the returned duration are the same clock reading:
// one instrumentation point per interval.
func Timed(ctx context.Context, name string, fn func()) (elapsed time.Duration) {
	start := Now()
	t, _ := ctx.Value(traceKey{}).(*Trace)
	s := t.open(name, start)
	defer func() {
		elapsed = Since(start)
		s.close(elapsed)
	}()
	fn()
	return
}

// open starts a span at the given instant; nil-safe on a nil trace.
func (t *Trace) open(name string, at time.Time) *span {
	if t == nil {
		return nil
	}
	s := &span{tr: t, name: name, start: at}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// close ends the span with the duration its caller measured.
func (s *span) close(dur time.Duration) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.done, s.dur = true, dur
	s.tr.mu.Unlock()
}

// Spans exports the trace in span-start order.
func (t *Trace) Spans() []SpanJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanJSON, len(t.spans))
	for i, s := range t.spans {
		dur := s.dur
		if !s.done {
			dur = Since(s.start)
		}
		out[i] = SpanJSON{
			Name:    s.name,
			StartUS: s.start.Sub(t.start).Microseconds(),
			DurUS:   dur.Microseconds(),
		}
	}
	return out
}

type traceKey struct{}

// WithTrace returns a context carrying t; Timed calls made under it record
// their spans there.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}
