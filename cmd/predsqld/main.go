// Command predsqld serves the library's SQL dialect over HTTP: tables and
// ground-truth labels are loaded at startup, and clients POST queries with
// per-request timeouts. It is the served-system face of the repo — the
// cancellable execution pipeline (predeval.QueryContext) is what makes a
// shared server viable, since a slow or hung UDF can no longer pin a
// worker past its deadline.
//
// Usage:
//
//	predsqld -addr :8080 -table loans=lc.csv -truth lc_labels.csv \
//	         -udf good_credit -max-concurrent 8 -timeout 30s
//
// Endpoints:
//
//	POST /query    {"sql": "...", "timeout_ms": 500, "limit": 100,
//	               "explain": false, "analyze": false, "trace": false}
//	               → columns, rows, row ids and execution stats as JSON.
//	               With "explain": true the statement is planned, not
//	               executed: the response carries the physical operator
//	               tree ("plan": one line per operator) and no UDF is ever
//	               invoked. With "analyze": true the query EXECUTES under
//	               EXPLAIN ANALYZE instrumentation: the rows come back as
//	               usual and "plan" carries the tree annotated with
//	               measured per-operator counts. With "trace": true the
//	               response carries "trace": per-phase spans (parse, bind,
//	               plan, per-operator, materialize) with µs offsets.
//	               408 if the request waited out its deadline in
//	               admission, 504 if the deadline expired mid-query, 400 on
//	               bad input — parse errors include the offending token's
//	               position as {"error": ..., "line": l, "col": c}.
//	               With "stream": true the response is chunked NDJSON: one
//	               {"row_id": ..., "row": [...]} object per line, flushed
//	               batch by batch as execution produces rows, then a
//	               terminal {"done": true, ...} line with columns,
//	               row_count, truncated and the full stats. "limit" then
//	               stops production early (unevaluated rows are never paid
//	               for) instead of merely bounding the payload.
//	GET  /tables   registered tables: name, row count, column names/types.
//	GET  /stats    server counters (served/failed/timeouts/…) + tables.
//	GET  /metrics  Prometheus text exposition: query-latency and per-UDF
//	               duration histograms, admission gauges, resilience and
//	               catalog counters (same atomics as /stats).
//	GET  /healthz  liveness probe.
//
// -trace-log FILE appends one JSON line of spans per executed query;
// -pprof-addr serves net/http/pprof on a separate listener.
//
// Admission control is a counting semaphore (-max-concurrent): excess
// queries queue until a slot frees or their deadline fires, so a burst
// degrades to queueing latency instead of unbounded goroutine fan-out.
// SIGINT/SIGTERM drain in-flight queries before exit (graceful shutdown).
//
// With -data-dir the server runs on a durable statistics & outcome
// catalog: every paid-for UDF verdict, sampling outcome and learned
// correlated-column choice is flushed to disk periodically
// (-flush-interval) and on drain, so a restarted server warm-starts
// instead of re-paying the most expensive work. GET /stats reports the
// catalog contents and warm-start counters alongside the cross-query
// cache hit/miss totals.
//
// UDF invocations are resilient: each call runs under a per-attempt
// deadline (-udf-call-timeout) with capped exponential-backoff retries
// (-udf-retries) and a per-(table, UDF) circuit breaker. -on-failure picks
// what a row whose invocation ultimately fails means — fail the query
// ("fail", default), drop the row silently ("skip"), or drop it and mark
// the response degraded ("degrade"); a request can override per query via
// "on_failure". Failed rows never contaminate the outcome cache, the
// durable catalog or learned statistics. A panicking handler answers 500
// JSON instead of killing the connection, and GET /stats carries a
// "resilience" section: handler panics, failure/retry/breaker totals and
// each breaker's live state.
//
// The -chaos-* flags wrap the registered UDF in a seeded deterministic
// fault injector (transient errors, latency spikes, persistently
// panicking values, failing first attempts) for end-to-end failure drills:
//
//	predsqld ... -on-failure degrade -udf-retries 4 \
//	         -chaos-error-rate 0.1 -chaos-latency 5ms -chaos-latency-rate 0.05
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/cliutil"
	"repro/internal/labels"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sqlparse"

	// Registered on http.DefaultServeMux, served only by the optional
	// -pprof-addr listener — the query mux is a fresh ServeMux, so the
	// profiling endpoints never leak onto the public address.
	_ "net/http/pprof"
)

func main() {
	var (
		tables        cliutil.MultiFlag
		addr          = flag.String("addr", ":8080", "listen address")
		truth         = flag.String("truth", "", "labels CSV (id,label) backing the simulated UDF")
		udf           = flag.String("udf", "good_credit", "UDF name to register")
		seed          = flag.Uint64("seed", 1, "random seed")
		parallelism   = flag.Int("parallelism", 0, "per-query UDF worker cap (0 = GOMAXPROCS)")
		batchSize     = flag.Int("batch-size", 0, "rows per execution batch (0 = engine default 1024); smaller lowers streamed first-row latency")
		maxConcurrent = flag.Int("max-concurrent", 8, "queries admitted concurrently; excess queue")
		timeout       = flag.Duration("timeout", 30*time.Second, "default per-request timeout")
		maxTimeout    = flag.Duration("max-timeout", 5*time.Minute, "ceiling on client-requested timeouts")
		udfDelay      = flag.Duration("udf-delay", 0, "artificial latency per UDF call (simulates an expensive predicate)")
		dataDir       = flag.String("data-dir", "", "durable catalog directory: UDF verdicts and learned statistics persist across restarts (empty = in-memory only)")
		flushInterval = flag.Duration("flush-interval", 30*time.Second, "how often the catalog is flushed to disk (0 disables the periodic flush; the drain still flushes)")
		traceLogPath  = flag.String("trace-log", "", "append one JSON line of per-phase spans for every executed query to this file")
		pprofAddr     = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")

		onFailure      = flag.String("on-failure", "fail", "default failure policy for rows whose UDF invocation ultimately fails: fail, skip or degrade")
		udfRetries     = flag.Int("udf-retries", 0, "max UDF invocation attempts including the first (0 = default 3)")
		udfCallTimeout = flag.Duration("udf-call-timeout", 0, "per-attempt UDF deadline (0 = unbounded)")

		chaosSeed         = flag.Uint64("chaos-seed", 0, "seed for the deterministic fault-injection schedule (0 = reuse -seed)")
		chaosErrorRate    = flag.Float64("chaos-error-rate", 0, "per-attempt probability of an injected transient UDF error")
		chaosPanicRate    = flag.Float64("chaos-panic-rate", 0, "per-value probability of a persistently panicking UDF body")
		chaosLatency      = flag.Duration("chaos-latency", 0, "injected latency spike duration")
		chaosLatencyRate  = flag.Float64("chaos-latency-rate", 0, "per-attempt probability of an injected latency spike")
		chaosFailAttempts = flag.Int("chaos-fail-attempts", 0, "fail the first N attempts of every value (retry exerciser)")
	)
	flag.Var(&tables, "table", "name=path CSV table (repeatable)")
	flag.Parse()

	if len(tables) == 0 || *truth == "" {
		fmt.Fprintln(os.Stderr, "predsqld: -table and -truth are required")
		flag.Usage()
		os.Exit(2)
	}

	db := predeval.Open(*seed)
	if *parallelism > 0 {
		db.SetParallelism(*parallelism)
	}
	if *batchSize > 0 {
		db.SetBatchSize(*batchSize)
	}
	for _, spec := range tables {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("predsqld: bad -table %q, want name=path", spec)
		}
		if err := db.LoadCSVFile(name, path); err != nil {
			log.Fatalf("predsqld: %v", err)
		}
	}
	truthLabels, err := labels.LoadFile(*truth)
	if err != nil {
		log.Fatalf("predsqld: %v", err)
	}
	if err := db.SetFailurePolicy(*onFailure); err != nil {
		log.Fatalf("predsqld: %v", err)
	}
	db.SetRetryPolicy(resilience.Policy{
		MaxAttempts: *udfRetries,
		CallTimeout: *udfCallTimeout,
	})

	// The metrics registry exists before UDF registration so the bodies can
	// be instrumented with per-UDF duration histograms.
	metrics := obs.NewRegistry()

	pred := labels.Delayed(labels.Predicate(truthLabels), *udfDelay)
	chaosCfg := resilience.ChaosConfig{
		Seed:         *chaosSeed,
		ErrorRate:    *chaosErrorRate,
		PanicRate:    *chaosPanicRate,
		Latency:      *chaosLatency,
		LatencyRate:  *chaosLatencyRate,
		FailAttempts: *chaosFailAttempts,
	}
	if chaosCfg.Seed == 0 {
		chaosCfg.Seed = *seed
	}
	body := func(_ context.Context, v any) (bool, error) { return pred(v), nil }
	var chaos *resilience.Chaos
	if chaosCfg.Enabled() {
		// Chaos mode: the simulated predicate runs behind the seeded fault
		// schedule, exercising retries, breakers and degradation end to end.
		chaos = resilience.NewChaos(chaosCfg)
		body = chaos.Wrap(body)
		log.Printf("predsqld: chaos injection enabled (seed=%d error-rate=%g panic-rate=%g latency=%v@%g fail-attempts=%d)",
			chaosCfg.Seed, chaosCfg.ErrorRate, chaosCfg.PanicRate, chaosCfg.Latency, chaosCfg.LatencyRate,
			chaosCfg.FailAttempts)
	}
	if err := db.RegisterUDFErr(*udf, instrumentUDF(metrics, *udf, body), 0); err != nil {
		log.Fatalf("predsqld: %v", err)
	}

	if *dataDir != "" {
		if err := db.OpenCatalog(*dataDir); err != nil {
			log.Fatalf("predsqld: %v", err)
		}
		if rec := db.Catalog().Recovery(); rec.Truncated {
			log.Printf("predsqld: catalog recovered a damaged tail (%s); facts since the last flush were lost and will be re-paid", rec.Note)
		}
		st := db.Catalog().Stats()
		log.Printf("predsqld: catalog %s warm with %d verdicts, %d sample rows, %d column memos",
			*dataDir, st.OutcomeRows, st.SampleRows, st.ColumnMemos)
	}

	srv := newServer(db, serverConfig{
		MaxConcurrent:  *maxConcurrent,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Metrics:        metrics,
	})
	srv.chaos = chaos
	if *traceLogPath != "" {
		f, err := os.OpenFile(*traceLogPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			log.Fatalf("predsqld: %v", err)
		}
		defer f.Close()
		srv.traceLog = &traceLogger{w: f}
	}
	if *pprofAddr != "" {
		// DefaultServeMux carries the net/http/pprof handlers; a dedicated
		// listener keeps them off the public query address.
		go func() {
			log.Printf("predsqld: pprof on %s", *pprofAddr)
			log.Printf("predsqld: pprof listener: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}
	stopFlusher := srv.startCatalogFlusher(*flushInterval)
	// Header/read timeouts bound connection-level stalls (slow-loris); the
	// per-query deadline machinery only starts once a request is decoded.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown: stop accepting, drain in-flight queries, exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()
	log.Printf("predsqld: serving on %s (tables %v, max-concurrent %d)", *addr, db.TableNames(), *maxConcurrent)
	select {
	case err := <-done:
		log.Fatalf("predsqld: %v", err)
	case <-ctx.Done():
	}
	// Drain must outlast the longest admissible query deadline, or exit
	// would cut in-flight queries off mid-run.
	shutCtx, cancel := context.WithTimeout(context.Background(), *maxTimeout+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("predsqld: shutdown: %v", err)
	}
	// Flush-on-drain: every verdict paid for during this life becomes
	// durable (and the log is compacted) before exit.
	stopFlusher()
	if err := db.CloseCatalog(); err != nil {
		log.Printf("predsqld: catalog close: %v", err)
	}
	log.Printf("predsqld: shut down (%d queries served in total), bye", srv.served.Value())
}

// serverConfig tunes the query server.
type serverConfig struct {
	// MaxConcurrent is the admission-control width: at most this many
	// queries execute at once; excess requests queue until a slot frees or
	// their deadline fires. ≤ 0 defaults to 8.
	MaxConcurrent int
	// DefaultTimeout applies when a request carries no timeout_ms.
	// ≤ 0 defaults to 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts. ≤ 0 defaults to 5m.
	MaxTimeout time.Duration
	// Metrics is the registry GET /metrics serves (nil = a fresh one). Pass
	// the registry used to instrument the UDF bodies so their duration
	// histograms appear in the same exposition.
	Metrics *obs.Registry
}

func (c *serverConfig) fill() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
}

// server wraps a predeval.DB with admission control and counters. The DB's
// engine is safe for concurrent queries (per-query meters, mutex-guarded
// caches), so one shared DB serves every request.
type server struct {
	db    *predeval.DB
	cfg   serverConfig
	sem   chan struct{}
	start time.Time
	// chaos, when non-nil, is the fault injector wrapped around the UDF
	// (surfaced in GET /stats).
	chaos *resilience.Chaos
	// metrics backs GET /metrics; queryDur is its query-latency histogram.
	metrics  *obs.Registry
	queryDur *obs.Histogram
	// traceLog, when non-nil, receives one JSON line of spans per executed
	// query (-trace-log).
	traceLog *traceLogger

	// The monotonic counters are instruments of the metrics registry
	// (registerMetrics): GET /metrics renders them and GET /stats reads the
	// same ones, so the two cannot drift.
	served      *obs.Counter // completed successfully
	failed      *obs.Counter // query/parse errors
	timeouts    *obs.Counter // deadline expired mid-query
	rejected    *obs.Counter // deadline expired waiting for admission
	disconnects *obs.Counter // client gone before the query finished
	panics      *obs.Counter // handler panics recovered by the middleware

	failedRows *obs.Counter // UDF rows that ultimately failed, summed over queries
	retries    *obs.Counter // UDF retry attempts, summed over queries
	degraded   *obs.Counter // queries answered with a degraded (partial) result

	flushes     *obs.Counter // completed catalog flushes
	flushErrors *obs.Counter // failed catalog flushes

	inflight atomic.Int64 // currently executing (post-admission)
	waiting  atomic.Int64 // queued for an execution slot right now
	// breakerTrips sums Stats.BreakerTrips over served queries for GET
	// /stats only: /metrics exposes trips per breaker from the engine.
	breakerTrips atomic.Int64
	lastFlush    atomic.Int64 // unix seconds of the last successful flush
}

// flushCatalog persists everything learned since the last flush. Safe to
// call concurrently with queries; no-op without an attached catalog.
func (s *server) flushCatalog() {
	if s.db.Catalog() == nil {
		return
	}
	if err := s.db.FlushCatalog(); err != nil {
		s.flushErrors.Inc()
		log.Printf("predsqld: catalog flush: %v", err)
		return
	}
	s.flushes.Inc()
	s.lastFlush.Store(time.Now().Unix())
}

// startCatalogFlusher flushes the catalog every interval until the
// returned stop function is called. stop waits for any in-flight flush,
// so the caller can safely close the catalog afterwards. With no catalog
// or a non-positive interval it does nothing (the drain-time flush still
// runs).
func (s *server) startCatalogFlusher(interval time.Duration) (stop func()) {
	if s.db.Catalog() == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.flushCatalog()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

func newServer(db *predeval.DB, cfg serverConfig) *server {
	cfg.fill()
	s := &server{
		db:      db,
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		start:   time.Now(),
		metrics: cfg.Metrics,
	}
	s.registerMetrics()
	return s
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /tables", s.handleTables)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return s.recoverPanics(mux)
}

// recoverPanics is the outermost middleware: a panicking handler answers
// 500 with a JSON error instead of killing the connection (net/http's
// default) — and never the server. Recovered panics are counted in
// GET /stats. http.ErrAbortHandler keeps its conventional meaning.
func (s *server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.panics.Inc()
			log.Printf("predsqld: recovered handler panic on %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			// Best effort: if the handler already started its response this
			// write is a no-op, but the connection survives either way.
			writeJSON(w, http.StatusInternalServerError,
				errorResponse{Error: fmt.Sprintf("internal error: %v", rec)})
		}()
		next.ServeHTTP(w, r)
	})
}

// queryRequest is the POST /query body.
type queryRequest struct {
	SQL string `json:"sql"`
	// TimeoutMS overrides the server's default per-request timeout
	// (clamped to -max-timeout). 0 means the default.
	TimeoutMS int64 `json:"timeout_ms"`
	// Limit caps the rows and row_ids serialized into the response
	// (0 = all); row_count always reports the full result size. For a
	// buffered response the query still executes fully — the limit only
	// bounds the payload. For a streamed response ("stream": true) the
	// limit instead STOPS PRODUCTION: once that many rows are written the
	// upstream evaluation is cancelled, so unevaluated rows are never paid
	// for and stats cover only the work performed.
	Limit int `json:"limit"`
	// Stream switches the response to chunked NDJSON: one
	// {"row_id": ..., "row": [...]} object per result row, written and
	// flushed batch by batch as execution produces them, then a terminal
	// {"done": true, ...} line carrying columns, row_count, truncated and
	// the full execution stats. For streaming plan shapes (exact
	// selections, conjunction waves) the first rows arrive while later
	// rows are still unevaluated. An error after rows have been written is
	// reported as a final {"error": ...} line. Incompatible with "explain"
	// and "analyze" (400).
	Stream bool `json:"stream"`
	// Explain plans the statement instead of executing it: the response is
	// the physical operator tree (with estimated costs and the chosen
	// correlated column where known) and no UDF is invoked. Equivalent to
	// prefixing the SQL with EXPLAIN.
	Explain bool `json:"explain"`
	// OnFailure overrides the server's failure policy for this query:
	// "fail", "skip" or "degrade" ("" keeps the server default).
	OnFailure string `json:"on_failure"`
	// Analyze executes the query with EXPLAIN ANALYZE instrumentation: the
	// response carries the result as usual plus "plan", the operator tree
	// annotated with measured per-operator counts. Equivalent to prefixing
	// the SQL with EXPLAIN ANALYZE (which instead returns the plan as the
	// result set, like Postgres). Unlike "explain", the query RUNS — it
	// goes through admission control and invokes UDFs.
	Analyze bool `json:"analyze"`
	// Trace records per-phase spans (parse, bind, plan, per-operator,
	// materialize) and returns them in the response as "trace".
	Trace bool `json:"trace"`
}

// queryResponse is the POST /query success payload.
type queryResponse struct {
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	RowIDs    []int      `json:"row_ids"`
	RowCount  int        `json:"row_count"`
	Truncated bool       `json:"truncated"`
	// Degraded marks a partial result: the "degrade" failure policy was in
	// effect and rows were excluded because their UDF invocation failed.
	Degraded bool `json:"degraded,omitempty"`
	// Stats is the engine's own statistics struct; its JSON tags are the
	// wire format (Degraded is carried above, not inside "stats").
	Stats     predeval.Stats `json:"stats"`
	ElapsedMS float64        `json:"elapsed_ms"`
	// Plan is the EXPLAIN ANALYZE annotated operator tree ("analyze": true).
	Plan []string `json:"plan,omitempty"`
	// Trace is the query's span list ("trace": true).
	Trace []obs.SpanJSON `json:"trace,omitempty"`
}

// streamRow is one NDJSON data line of a streamed query response.
type streamRow struct {
	RowID int      `json:"row_id"`
	Row   []string `json:"row"`
}

// streamDone is the terminal NDJSON line of a streamed query response.
type streamDone struct {
	Done      bool     `json:"done"`
	Columns   []string `json:"columns"`
	RowCount  int      `json:"row_count"`
	Truncated bool     `json:"truncated"`
	// Degraded marks a partial result under the "degrade" failure policy.
	Degraded  bool           `json:"degraded,omitempty"`
	Stats     predeval.Stats `json:"stats"`
	ElapsedMS float64        `json:"elapsed_ms"`
	// Trace is the query's span list ("trace": true).
	Trace []obs.SpanJSON `json:"trace,omitempty"`
}

// errorResponse is the error payload; parse errors carry the offending
// token's 1-based line and column.
type errorResponse struct {
	Error string `json:"error"`
	Line  int    `json:"line,omitempty"`
	Col   int    `json:"col,omitempty"`
}

// errorBody builds the error payload, surfacing parser positions when the
// error chain carries them.
func errorBody(err error) errorResponse {
	resp := errorResponse{Error: err.Error()}
	var perr *sqlparse.Error
	if errors.As(err, &perr) {
		resp.Line, resp.Col = perr.Line, perr.Col
	}
	return resp
}

// explainResponse is the POST /query payload when "explain" is set (or the
// SQL starts with EXPLAIN): the operator tree, one line per operator.
type explainResponse struct {
	Plan []string `json:"plan"`
}

// isExplainSQL reports whether the statement is a plan-only EXPLAIN: first
// word EXPLAIN and NOT followed by ANALYZE. Keyword-explain requests take
// the same fast path as the request flag; EXPLAIN ANALYZE executes UDFs,
// so it must go through admission control like any other query.
func isExplainSQL(sql string) bool {
	fields := strings.Fields(sql)
	if len(fields) == 0 || !strings.EqualFold(fields[0], "EXPLAIN") {
		return false
	}
	return len(fields) < 2 || !strings.EqualFold(fields[1], "ANALYZE")
}

// statusClientClosedRequest is nginx's conventional 499 for a client that
// disconnected before the response; net/http has no constant for it.
const statusClientClosedRequest = 499

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// execInfo is what an admitted execution reports beside its result.
type execInfo struct {
	trace   *obs.Trace    // nil unless the request asked or -trace-log forces one
	elapsed time.Duration // engine time, measured while the slot was held
}

// runAdmitted is the one admitted-execution path behind both query
// handlers: clamp the timeout, attach a trace (requested per query, or
// forced server-wide by -trace-log), wait for an execution slot, call run
// holding it, observe the duration, log the trace and fold the outcome into
// the server counters. The deadline covers admission waiting AND
// execution: a query that queues for its whole budget is answered 408
// without ever running. A failure comes back as the HTTP status and the
// error to put on the wire — unwritten, because a streaming caller may
// already be past its header.
func (s *server) runAdmitted(r *http.Request, req queryRequest, run func(ctx context.Context) (predeval.Stats, error)) (execInfo, int, error) {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = min(time.Duration(req.TimeoutMS)*time.Millisecond, s.cfg.MaxTimeout)
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	var info execInfo
	if req.Trace || s.traceLog != nil {
		info.trace = obs.NewTrace()
		ctx = obs.WithTrace(ctx, info.trace)
	}

	s.waiting.Add(1)
	select {
	case s.sem <- struct{}{}:
		s.waiting.Add(-1)
	case <-ctx.Done():
		s.waiting.Add(-1)
		// Distinguish "client hung up while queueing" (499) from "deadline
		// ran out while queueing" (admission pressure, 408 — distinct from
		// a mid-query 504).
		if errors.Is(ctx.Err(), context.Canceled) {
			s.disconnects.Inc()
			return info, statusClientClosedRequest, ctx.Err()
		}
		s.rejected.Inc()
		return info, http.StatusRequestTimeout, errors.New("timed out waiting for an execution slot")
	}
	st, err := func() (predeval.Stats, error) {
		defer func() { <-s.sem }()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		started := time.Now()
		defer func() { info.elapsed = time.Since(started) }()
		return run(ctx)
	}()
	s.queryDur.Observe(info.elapsed.Seconds())
	if info.trace != nil {
		s.traceLog.log(req.SQL, info.trace.Spans())
	}
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		return info, http.StatusGatewayTimeout, fmt.Errorf("query exceeded its %v deadline", timeout)
	case errors.Is(err, context.Canceled):
		// The client went away mid-query; nobody reads this response, but
		// count it apart from genuine query errors.
		s.disconnects.Inc()
		return info, statusClientClosedRequest, err
	default:
		s.failed.Inc()
		return info, http.StatusBadRequest, err
	}
	s.failedRows.Add(int64(st.FailedRows))
	s.retries.Add(int64(st.Retries))
	s.breakerTrips.Add(int64(st.BreakerTrips))
	if st.Degraded {
		s.degraded.Inc()
	}
	s.served.Inc()
	return info, http.StatusOK, nil
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Bound the request body: a query payload is SQL plus two ints, so 1MiB
	// is generous — without this a single huge POST could exhaust memory
	// before admission control ever runs.
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing sql"})
		return
	}
	if req.Stream {
		if req.Explain || req.Analyze || isExplainSQL(req.SQL) {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: "explain/analyze cannot be streamed"})
			return
		}
		s.handleStreamQuery(w, r, req)
		return
	}
	if req.Explain || isExplainSQL(req.SQL) {
		// Planning never invokes a UDF, so it bypasses admission control:
		// an EXPLAIN answers immediately even when every slot is busy. The
		// EXPLAIN keyword and the request flag take the same path, so both
		// return the same {"plan": [...]} payload. The parsed statement
		// decides: EXPLAIN ANALYZE executes UDFs, so under the flag too it
		// falls through to admission like any query.
		if stmt, err := sqlparse.Parse(req.SQL); err != nil || !stmt.Analyze {
			text, err := s.db.ExplainContext(r.Context(), req.SQL)
			if err != nil {
				s.failed.Inc()
				writeJSON(w, http.StatusBadRequest, errorBody(err))
				return
			}
			s.served.Inc()
			writeJSON(w, http.StatusOK, explainResponse{
				Plan: strings.Split(strings.TrimRight(text, "\n"), "\n"),
			})
			return
		}
	}
	// The execution slot is held only while the engine runs — response
	// encoding happens after release, so a slow-reading client cannot pin
	// an admission slot past its query.
	var rows *predeval.Rows
	info, status, err := s.runAdmitted(r, req, func(ctx context.Context) (predeval.Stats, error) {
		var err error
		rows, err = s.db.QueryContextOptions(ctx, req.SQL,
			predeval.QueryOptions{OnFailure: req.OnFailure, Analyze: req.Analyze})
		if err != nil {
			return predeval.Stats{}, err
		}
		return rows.Stats(), nil
	})
	if err != nil {
		writeJSON(w, status, errorBody(err))
		return
	}

	n := rows.Len()
	shown := n
	if req.Limit > 0 && req.Limit < n {
		shown = req.Limit
	}
	ids := rows.RowIDs()
	if len(ids) > shown {
		ids = ids[:shown]
	}
	out := queryResponse{
		Columns:   rows.Columns(),
		Rows:      make([][]string, 0, shown),
		RowIDs:    ids,
		RowCount:  n,
		Truncated: shown < n,
		ElapsedMS: float64(info.elapsed.Microseconds()) / 1e3,
		Plan:      rows.Plan(),
	}
	if req.Trace {
		out.Trace = info.trace.Spans()
	}
	for i := 0; i < shown; i++ {
		out.Rows = append(out.Rows, rows.Row(i))
	}
	out.Stats = rows.Stats()
	out.Degraded = out.Stats.Degraded
	writeJSON(w, http.StatusOK, out)
}

// handleStreamQuery answers a "stream": true request with chunked NDJSON:
// row lines are written and flushed as execution emits batches, so the
// first rows reach the client while later rows are still being evaluated.
// The admission slot is held until the last row is delivered — unlike the
// buffered path, production and delivery are interleaved by design. Errors
// before the first row use the normal status-code taxonomy; once rows are
// out the status is already 200, so a failure becomes a final
// {"error": ...} line.
func (s *server) handleStreamQuery(w http.ResponseWriter, r *http.Request, req queryRequest) {
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	headerSent := false
	sendHeader := func() {
		if !headerSent {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			headerSent = true
		}
	}
	emit := func(ids []int, cells [][]string) error {
		sendHeader()
		for i, id := range ids {
			if err := enc.Encode(streamRow{RowID: id, Row: cells[i]}); err != nil {
				return err
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	var res *predeval.StreamResult
	info, status, err := s.runAdmitted(r, req, func(ctx context.Context) (predeval.Stats, error) {
		var err error
		res, err = s.db.QueryStream(ctx, req.SQL,
			predeval.StreamOptions{OnFailure: req.OnFailure, Limit: req.Limit}, emit)
		if err != nil {
			return predeval.Stats{}, err
		}
		return res.Stats, nil
	})
	if err != nil {
		if !headerSent {
			writeJSON(w, status, errorBody(err))
			return
		}
		// Rows are already out on a 200; the error becomes the final line.
		_ = enc.Encode(errorBody(err))
		if flusher != nil {
			flusher.Flush()
		}
		return
	}
	sendHeader() // a zero-row result still answers NDJSON
	done := streamDone{
		Done:      true,
		Columns:   res.Columns,
		RowCount:  res.RowCount,
		Truncated: res.Truncated,
		Degraded:  res.Stats.Degraded,
		Stats:     res.Stats,
		ElapsedMS: float64(info.elapsed.Microseconds()) / 1e3,
	}
	if req.Trace {
		done.Trace = info.trace.Spans()
	}
	_ = enc.Encode(done)
	if flusher != nil {
		flusher.Flush()
	}
}

// handleTables lists the registered tables with row counts and schemas.
func (s *server) handleTables(w http.ResponseWriter, _ *http.Request) {
	tables := make([]predeval.TableInfo, 0)
	for _, name := range s.db.TableNames() {
		if info, err := s.db.TableInfo(name); err == nil {
			tables = append(tables, info)
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Tables []predeval.TableInfo `json:"tables"`
	}{tables})
}

// cacheStats is the cross-query outcome-cache section of GET /stats.
type cacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// catalogStats is the durable-catalog section of GET /stats (present only
// when the server runs with -data-dir).
type catalogStats struct {
	Dir            string `json:"dir"`
	OutcomeRows    int    `json:"outcome_rows"`
	SampleRows     int    `json:"sample_rows"`
	ColumnMemos    int    `json:"column_memos"`
	ColumnMemoHits int64  `json:"column_memo_hits"`
	SeededRows     int64  `json:"seeded_rows"`
	Flushes        int64  `json:"flushes"`
	FlushErrors    int64  `json:"flush_errors,omitempty"`
	LastFlushUnix  int64  `json:"last_flush_unix,omitempty"`
	Recovered      bool   `json:"recovered,omitempty"`
}

// resilienceStats is the failure-handling section of GET /stats:
// recovered handler panics, UDF failure/retry/breaker totals summed over
// all served queries, and the live state of every circuit breaker.
type resilienceStats struct {
	HandlerPanics   int64                    `json:"handler_panics"`
	FailedRows      int64                    `json:"failed_rows"`
	Retries         int64                    `json:"retries"`
	BreakerTrips    int64                    `json:"breaker_trips"`
	DegradedQueries int64                    `json:"degraded_queries"`
	Breakers        []predeval.BreakerStatus `json:"breakers,omitempty"`
	ChaosCalls      int64                    `json:"chaos_calls,omitempty"`
}

// statsResponse is the GET /stats payload.
type statsResponse struct {
	UptimeS       float64         `json:"uptime_s"`
	Served        int64           `json:"served"`
	Failed        int64           `json:"failed"`
	Timeouts      int64           `json:"timeouts"`
	Rejected      int64           `json:"rejected"`
	Disconnects   int64           `json:"disconnects"`
	InFlight      int64           `json:"in_flight"`
	MaxConcurrent int             `json:"max_concurrent"`
	Tables        map[string]int  `json:"tables"`
	Cache         cacheStats      `json:"cache"`
	Resilience    resilienceStats `json:"resilience"`
	Catalog       *catalogStats   `json:"catalog,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	tables := make(map[string]int)
	for _, name := range s.db.TableNames() {
		if n, err := s.db.NumRows(name); err == nil {
			tables[name] = n
		}
	}
	cc := s.db.CacheCounters()
	resp := statsResponse{
		UptimeS:       time.Since(s.start).Seconds(),
		Served:        s.served.Value(),
		Failed:        s.failed.Value(),
		Timeouts:      s.timeouts.Value(),
		Rejected:      s.rejected.Value(),
		Disconnects:   s.disconnects.Value(),
		InFlight:      s.inflight.Load(),
		MaxConcurrent: s.cfg.MaxConcurrent,
		Tables:        tables,
		Cache:         cacheStats{Hits: cc.Hits, Misses: cc.Misses},
		Resilience: resilienceStats{
			HandlerPanics:   s.panics.Value(),
			FailedRows:      s.failedRows.Value(),
			Retries:         s.retries.Value(),
			BreakerTrips:    s.breakerTrips.Load(),
			DegradedQueries: s.degraded.Value(),
			Breakers:        s.db.BreakerStatuses(),
		},
	}
	if s.chaos != nil {
		resp.Resilience.ChaosCalls = s.chaos.Calls()
	}
	if cat := s.db.Catalog(); cat != nil {
		st := cat.Stats()
		resp.Catalog = &catalogStats{
			Dir:            cat.Dir(),
			OutcomeRows:    st.OutcomeRows,
			SampleRows:     st.SampleRows,
			ColumnMemos:    st.ColumnMemos,
			ColumnMemoHits: cc.ColumnMemoHits,
			SeededRows:     cc.SeededRows,
			Flushes:        s.flushes.Value(),
			FlushErrors:    s.flushErrors.Value(),
			LastFlushUnix:  s.lastFlush.Load(),
			Recovered:      st.Recovered,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
