package obs

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_queries_total", "Total queries.", Label{"status", "ok"})
	c.Add(3)
	r.Counter("test_queries_total", "Total queries.", Label{"status", "error"}).Inc()
	g := r.Gauge("test_in_flight", "In-flight queries.")
	g.Set(2)
	r.GaugeFunc("test_uptime_seconds", "Uptime.", func() float64 { return 1.5 })

	var b strings.Builder
	if err := r.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP test_in_flight In-flight queries.
# TYPE test_in_flight gauge
test_in_flight 2
# HELP test_queries_total Total queries.
# TYPE test_queries_total counter
test_queries_total{status="error"} 1
test_queries_total{status="ok"} 3
# HELP test_uptime_seconds Uptime.
# TYPE test_uptime_seconds gauge
test_uptime_seconds 1.5
`
	if got != want {
		t.Fatalf("exposition mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}

	vals, err := ParseExposition(strings.NewReader(got))
	if err != nil {
		t.Fatalf("own output does not parse: %v", err)
	}
	if vals[`test_queries_total{status="ok"}`] != 3 {
		t.Fatalf("parsed %v", vals)
	}
	if vals["test_in_flight"] != 2 {
		t.Fatalf("parsed %v", vals)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Fatal("re-registering a counter should return the same instrument")
	}
	h1 := r.Histogram("h_seconds", "h", DefBuckets)
	h2 := r.Histogram("h_seconds", "h", DefBuckets)
	if h1 != h2 {
		t.Fatal("re-registering a histogram should return the same instrument")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on counter/gauge name collision")
		}
	}()
	r := NewRegistry()
	r.Counter("clash", "c")
	r.Gauge("clash", "g")
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1, 10}, Label{"udf", "f"})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{udf="f",le="0.1"} 1
test_latency_seconds_bucket{udf="f",le="1"} 3
test_latency_seconds_bucket{udf="f",le="10"} 4
test_latency_seconds_bucket{udf="f",le="+Inf"} 5
test_latency_seconds_sum{udf="f"} 56.05
test_latency_seconds_count{udf="f"} 5
`
	if got != want {
		t.Fatalf("histogram exposition mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
	vals, err := ParseExposition(strings.NewReader(got))
	if err != nil {
		t.Fatalf("own histogram output does not parse: %v", err)
	}
	if vals[`test_latency_seconds_count{udf="f"}`] != 5 {
		t.Fatalf("parsed %v", vals)
	}
	if h.Count() != 5 {
		t.Fatalf("Count() = %d", h.Count())
	}
}

func TestCollectCallback(t *testing.T) {
	r := NewRegistry()
	r.Collect("breaker_state", "Breaker state.", "gauge", func() []Sample {
		return []Sample{
			{Labels: []Label{{"table", "loans"}, {"udf", "g"}}, Value: 2},
			{Labels: []Label{{"table", "loans"}, {"udf", "f"}}, Value: 0},
		}
	})
	var b strings.Builder
	if err := r.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	// Samples are sorted by label signature even when the callback returns
	// them out of order (maporder contract: collect-then-sort).
	fIdx := strings.Index(got, `udf="f"`)
	gIdx := strings.Index(got, `udf="g"`)
	if fIdx < 0 || gIdx < 0 || fIdx > gIdx {
		t.Fatalf("collector samples not sorted:\n%s", got)
	}
	if _, err := ParseExposition(strings.NewReader(got)); err != nil {
		t.Fatal(err)
	}
}

// malformedExpositions are inputs ParseExposition must reject; they also
// seed FuzzParseExposition.
var malformedExpositions = map[string]string{
	"no type":          "orphan_metric 1\n",
	"bad name":         "# TYPE 9bad counter\n9bad 1\n",
	"bad value":        "# TYPE m counter\nm one\n",
	"bad label":        "# TYPE m counter\nm{x=unquoted} 1\n",
	"dup sample":       "# TYPE m counter\nm 1\nm 2\n",
	"hist no inf":      "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
	"hist decreasing":  "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
	"hist count drift": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n",
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for name, in := range malformedExpositions {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected parse error on %q", name, in)
		}
	}
}

func TestParseExpositionEscapes(t *testing.T) {
	in := "# TYPE m counter\nm{path=\"a\\\\b\\\"c\\nd\"} 7\n"
	vals, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 {
		t.Fatalf("parsed %v", vals)
	}
	for k, v := range vals {
		if v != 7 || !strings.Contains(k, "a\\\\b") {
			t.Fatalf("parsed %q=%v", k, v)
		}
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	h := r.Histogram("h_seconds", "h", DefBuckets)
	g := r.Gauge("g", "g")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j%100) / 1000)
				g.Set(float64(i))
				if j%100 == 0 {
					var b strings.Builder
					if err := r.WriteExposition(&b); err != nil {
						t.Error(err)
						return
					}
					if _, err := ParseExposition(strings.NewReader(b.String())); err != nil {
						t.Errorf("mid-flight exposition invalid: %v", err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	sum := math.Float64frombits(h.sumBits.Load())
	if sum <= 0 {
		t.Fatalf("histogram sum = %v", sum)
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	Timed(ctx, "parse", func() {})
	Timed(ctx, "execute", func() {
		// A span is exported while still open, with the time it has so far.
		if open := tr.Spans(); len(open) != 2 || open[1].Name != "execute" {
			t.Errorf("spans seen from inside execute: %+v", open)
		}
	})
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Name != "parse" || spans[1].Name != "execute" {
		t.Fatalf("span order: %+v", spans)
	}
	if spans[0].StartUS < 0 || spans[0].DurUS < 0 {
		t.Fatalf("negative timing: %+v", spans[0])
	}
	if _, err := json.Marshal(spans); err != nil {
		t.Fatal(err)
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil trace exported spans: %v", got)
	}
	ran := false
	Timed(WithTrace(context.Background(), tr), "anything", func() { ran = true })
	if !ran {
		t.Fatal("Timed did not run fn under a nil trace")
	}
}

// TestTimedReturnsDuration: Timed returns fn's wall time whether or not a
// trace is attached, and on a traced context the span carries that same
// reading (one clock pair per interval).
func TestTimedReturnsDuration(t *testing.T) {
	const nap = 2 * time.Millisecond
	if d := Timed(context.Background(), "untraced", func() { time.Sleep(nap) }); d < nap {
		t.Errorf("untraced Timed returned %v, want >= %v", d, nap)
	}
	tr := NewTrace()
	d := Timed(WithTrace(context.Background(), tr), "traced", func() { time.Sleep(nap) })
	if d < nap {
		t.Errorf("traced Timed returned %v, want >= %v", d, nap)
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].DurUS != d.Microseconds() {
		t.Errorf("span = %+v, want one span of %d us", spans, d.Microseconds())
	}
}

// TestTimedClosesSpanOnPanic: the span closes in a defer, so a panicking fn
// leaves a finished span behind.
func TestTimedClosesSpanOnPanic(t *testing.T) {
	tr := NewTrace()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate out of Timed")
			}
		}()
		Timed(WithTrace(context.Background(), tr), "boom", func() { panic("boom") })
	}()
	if len(tr.spans) != 1 || !tr.spans[0].done {
		t.Fatalf("span left open after panic: %+v", tr.spans)
	}
}
