package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// The /metrics surface, as Prometheus text exposition, is the one place the
// server's counters are read: its own monotonic counters (admission
// outcomes, resilience totals, catalog flushes) are registry instruments the
// handlers increment; state that lives elsewhere (the up/down admission
// gauges, the engine's batch and cache counters, the breaker table, the
// catalog's size) is read by scrape-time collectors; and the handlers feed
// two histogram families directly — query latency and per-UDF invocation
// duration. Every fact has one instrument.

// registerMetrics creates the server's instruments in its registry and
// wires the collectors. Called once from newServer; collectors run at
// scrape time.
func (s *server) registerMetrics() {
	reg := s.metrics
	start := float64(time.Now().UnixNano()) / 1e9
	reg.GaugeFunc("predsqld_start_time_seconds",
		"Unix time the server started; uptime is the scrape time minus this.",
		func() float64 { return start })
	s.queryDur = reg.Histogram("predsqld_query_duration_seconds",
		"Wall time of executed queries (excludes admission waiting).", obs.DefBuckets)

	status := func(name string) *obs.Counter {
		return reg.Counter("predsqld_queries_total", "Queries by outcome.", obs.Label{Name: "status", Value: name})
	}
	s.served, s.failed, s.timeouts = status("ok"), status("error"), status("timeout")
	s.rejected, s.disconnects = status("rejected"), status("disconnect")
	reg.GaugeFunc("predsqld_in_flight",
		"Queries currently executing (post-admission).",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("predsqld_admission_waiting",
		"Queries queued for an execution slot right now.",
		func() float64 { return float64(s.waiting.Load()) })
	reg.GaugeFunc("predsqld_max_concurrent",
		"Admission-control width (-max-concurrent).",
		func() float64 { return float64(s.cfg.MaxConcurrent) })

	// Batch execution observability, read live off the engine's atomics.
	reg.GaugeFunc("predsqld_batches_in_flight",
		"Result batches currently being processed downstream of the engine.",
		func() float64 {
			inFlight, _, _ := s.db.Engine().BatchCounters()
			return float64(inFlight)
		})
	reg.GaugeFunc("predsqld_peak_batch_rows",
		"Largest result batch (in rows) any query has emitted.",
		func() float64 {
			_, peak, _ := s.db.Engine().BatchCounters()
			return float64(peak)
		})
	reg.Collect("predsqld_batches_total",
		"Result batches emitted by the engine.", "counter",
		func() []obs.Sample {
			_, _, total := s.db.Engine().BatchCounters()
			return []obs.Sample{{Value: float64(total)}}
		})

	s.retries = reg.Counter("predsqld_udf_retries_total",
		"UDF retry attempts summed over all queries.")
	s.failedRows = reg.Counter("predsqld_failed_rows_total",
		"Rows whose UDF invocation ultimately failed, summed over all queries.")
	s.degraded = reg.Counter("predsqld_degraded_queries_total",
		"Queries answered with a partial (degraded) result.")
	s.panics = reg.Counter("predsqld_handler_panics_total",
		"Handler panics recovered by the middleware.")

	// Breaker state transitions (trips) and current position, per (table,
	// UDF) breaker. BreakerStatuses returns in sorted order.
	breakerLabels := func(b predeval.BreakerStatus, more ...obs.Label) []obs.Label {
		return append([]obs.Label{{Name: "table", Value: b.Table}, {Name: "udf", Value: b.UDF}}, more...)
	}
	reg.Collect("predsqld_breaker_trips_total",
		"Closed-to-open transitions per circuit breaker.", "counter",
		func() []obs.Sample {
			var out []obs.Sample
			for _, b := range s.db.BreakerStatuses() {
				out = append(out, obs.Sample{Labels: breakerLabels(b), Value: float64(b.Trips)})
			}
			return out
		})
	reg.Collect("predsqld_breaker_state",
		"1 on the breaker's current state (closed, open or half-open), 0 on the others.", "gauge",
		func() []obs.Sample {
			var out []obs.Sample
			for _, b := range s.db.BreakerStatuses() {
				for _, state := range []resilience.BreakerState{resilience.BreakerClosed, resilience.BreakerOpen, resilience.BreakerHalfOpen} {
					v := 0.0
					if b.State == state.String() {
						v = 1
					}
					out = append(out, obs.Sample{Labels: breakerLabels(b, obs.Label{Name: "state", Value: state.String()}), Value: v})
				}
			}
			return out
		})

	reg.Collect("predsqld_cache_total",
		"Cross-query outcome cache lookups by result.", "counter",
		func() []obs.Sample {
			cc := s.db.CacheCounters()
			return []obs.Sample{
				{Labels: []obs.Label{{Name: "result", Value: "hit"}}, Value: float64(cc.Hits)},
				{Labels: []obs.Label{{Name: "result", Value: "miss"}}, Value: float64(cc.Misses)},
			}
		})
	reg.Collect("predsqld_catalog_column_memo_hits_total",
		"Queries that skipped correlated-column discovery thanks to a catalog memo.", "counter",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.db.CacheCounters().ColumnMemoHits)}}
		})
	s.flushes = reg.Counter("predsqld_catalog_flushes_total",
		"Completed catalog flushes.")
	s.flushErrors = reg.Counter("predsqld_catalog_flush_errors_total",
		"Failed catalog flushes.")
	reg.GaugeFunc("predsqld_catalog_last_flush_timestamp_seconds",
		"Unix time of the last successful catalog flush (0 before the first).",
		func() float64 { return float64(s.lastFlush.Load()) })

	// The catalog's own contents, present only with -data-dir.
	catalogGauge := func(name, help string, value func(catalog.Stats) float64) {
		reg.Collect(name, help, "gauge", func() []obs.Sample {
			cat := s.db.Catalog()
			if cat == nil {
				return nil
			}
			return []obs.Sample{{Value: value(cat.Stats())}}
		})
	}
	catalogGauge("predsqld_catalog_verdict_rows", "UDF verdicts the catalog holds.",
		func(st catalog.Stats) float64 { return float64(st.OutcomeRows) })
	catalogGauge("predsqld_catalog_column_memos", "Correlated-column choices the catalog holds.",
		func(st catalog.Stats) float64 { return float64(st.ColumnMemos) })
	catalogGauge("predsqld_catalog_recovered", "1 when opening the catalog cut off a damaged log tail.",
		func(st catalog.Stats) float64 {
			if st.Recovered {
				return 1
			}
			return 0
		})
}

// instrumentUDF wraps a fallible UDF body so every invocation's wall time
// lands in the per-UDF duration histogram. The observation covers one
// attempt (retries observe once each), so the histogram reflects what the
// predicate actually costs per call.
func instrumentUDF(reg *obs.Registry, name string, body func(context.Context, any) (bool, error)) func(context.Context, any) (bool, error) {
	h := reg.Histogram("predsqld_udf_duration_seconds",
		"UDF invocation wall time per attempt, by UDF.", obs.DefBuckets,
		obs.Label{Name: "udf", Value: name})
	return func(ctx context.Context, v any) (bool, error) {
		start := obs.Now()
		defer h.ObserveSince(start)
		return body(ctx, v)
	}
}

// handleMetrics serves the registry as Prometheus text exposition
// (format 0.0.4). Scraping is lock-brief and safe while queries run.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.WriteExposition(w); err != nil {
		// The header is already out; nothing useful left to send.
		return
	}
}

// traceLogger appends one JSON line per traced query to -trace-log. A
// mutex serializes whole lines, so concurrent queries never interleave.
type traceLogger struct {
	mu sync.Mutex
	w  io.Writer
}

// traceRecord is one -trace-log line.
type traceRecord struct {
	SQL   string         `json:"sql"`
	Spans []obs.SpanJSON `json:"spans"`
}

func (l *traceLogger) log(sql string, spans []obs.SpanJSON) {
	if l == nil {
		return
	}
	line, err := json.Marshal(traceRecord{SQL: sql, Spans: spans})
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = l.w.Write(append(line, '\n'))
}
