package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// httpGet fetches path from the test server, returning status and body.
// Error-returning (not t.Fatal) so it is safe on client goroutines.
func httpGet(url, path string) (int, []byte, error) {
	resp, err := http.Get(url + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// scrapeMetrics fetches and parses /metrics, failing the test on invalid
// exposition.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	status, body, err := httpGet(url, "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("GET /metrics: status %d: %s", status, body)
	}
	samples, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	return samples
}

func TestMetricsExposition(t *testing.T) {
	_, ts := testServer(t, 300, 0, serverConfig{})
	for i := 0; i < 3; i++ {
		status, body := mustPostQuery(t, ts.URL, queryRequest{
			SQL: "SELECT * FROM loans WHERE good_credit(id) = 1",
		})
		if status != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, status, body)
		}
	}
	// A parse error feeds the error counter.
	if status, _ := mustPostQuery(t, ts.URL, queryRequest{SQL: "SELECT bogus"}); status != http.StatusBadRequest {
		t.Fatalf("bad query: status %d", status)
	}

	m := scrapeMetrics(t, ts.URL)
	if got := m[`predsqld_queries_total{status="ok"}`]; got != 3 {
		t.Errorf(`queries_total{status="ok"} = %v, want 3`, got)
	}
	if got := m[`predsqld_queries_total{status="error"}`]; got != 1 {
		t.Errorf(`queries_total{status="error"} = %v, want 1`, got)
	}
	// The latency histogram covers every admitted query, including the one
	// that failed to parse — 4 observations, not 3.
	if got := m["predsqld_query_duration_seconds_count"]; got != 4 {
		t.Errorf("query_duration count = %v, want 4", got)
	}
	if m["predsqld_query_duration_seconds_sum"] <= 0 {
		t.Error("query_duration sum not positive")
	}
	if got := m[`predsqld_udf_duration_seconds_count{udf="good_credit"}`]; got == 0 {
		t.Error("udf_duration count = 0, want invocations observed")
	}
	for _, gauge := range []string{"predsqld_in_flight", "predsqld_admission_waiting", "predsqld_max_concurrent"} {
		if _, ok := m[gauge]; !ok {
			t.Errorf("gauge %s missing from exposition", gauge)
		}
	}
	if _, ok := m["predsqld_catalog_flushes_total"]; !ok {
		t.Error("catalog_flushes_total missing from exposition")
	}
	// Without -data-dir there is no catalog to size.
	if _, ok := m["predsqld_catalog_verdict_rows"]; ok {
		t.Error("catalog_verdict_rows present without a catalog")
	}
	if start := m["predsqld_start_time_seconds"]; start <= 0 || start > float64(time.Now().Unix()+1) {
		t.Errorf("start_time_seconds = %v, want a past unix time", start)
	}
	// /metrics is the one place counters are read: GET /stats is gone.
	if status, _, err := httpGet(ts.URL, "/stats"); err != nil || status != http.StatusNotFound {
		t.Errorf("GET /stats: status %d err %v, want 404", status, err)
	}
}

// TestConcurrentScrapes hammers /metrics from two scrapers while queries
// run: every scrape must parse as valid exposition and each scraper must see
// the success counter monotone. Run under -race this also proves the collectors race-free
// against the handler's atomics.
func TestConcurrentScrapes(t *testing.T) {
	_, ts := testServer(t, 200, 100*time.Microsecond, serverConfig{MaxConcurrent: 4})

	const queries = 16
	var wg sync.WaitGroup
	errc := make(chan error, queries+2)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body, err := postQuery(ts.URL, queryRequest{
				SQL: "SELECT * FROM loans WHERE good_credit(id) = 1",
			})
			if err != nil {
				errc <- err
			} else if status != http.StatusOK {
				errc <- fmt.Errorf("query status %d: %s", status, body)
			}
		}()
	}

	done := make(chan struct{})
	var scraperWG sync.WaitGroup
	scrape := func(path string, check func([]byte) error) {
		defer scraperWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			status, body, err := httpGet(ts.URL, path)
			if err != nil {
				errc <- err
				return
			}
			if status != http.StatusOK {
				errc <- fmt.Errorf("GET %s: status %d", path, status)
				return
			}
			if err := check(body); err != nil {
				errc <- fmt.Errorf("GET %s: %v", path, err)
				return
			}
		}
	}
	monotone := func() func([]byte) error {
		var lastOK float64
		return func(body []byte) error {
			m, err := obs.ParseExposition(bytes.NewReader(body))
			if err != nil {
				return err
			}
			ok := m[`predsqld_queries_total{status="ok"}`]
			if ok < lastOK {
				return fmt.Errorf("queries_total{ok} went backwards: %v -> %v", lastOK, ok)
			}
			lastOK = ok
			return nil
		}
	}
	scraperWG.Add(2)
	go scrape("/metrics", monotone())
	go scrape("/metrics", monotone())

	wg.Wait()
	close(done)
	scraperWG.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	m := scrapeMetrics(t, ts.URL)
	if got := m[`predsqld_queries_total{status="ok"}`]; got != queries {
		t.Errorf(`queries_total{status="ok"} = %v, want %d`, got, queries)
	}
	if got := m["predsqld_query_duration_seconds_count"]; got != queries {
		t.Errorf("query_duration count = %v, want %d", got, queries)
	}
}

// TestQueryAnalyzeReturnsAnnotatedPlan: a query asked with the EXPLAIN
// ANALYZE keyword keeps its result set, carries the annotated tree under
// "plan", returns no trace it was not asked for, and is served once.
func TestQueryAnalyzeReturnsAnnotatedPlan(t *testing.T) {
	srv, ts := testServer(t, 300, 0, serverConfig{})
	status, body := mustPostQuery(t, ts.URL, queryRequest{
		SQL: "EXPLAIN ANALYZE SELECT * FROM loans WHERE good_credit(id) = 1",
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out queryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.RowCount == 0 || len(out.Rows) == 0 {
		t.Fatal("EXPLAIN ANALYZE dropped the result set")
	}
	text := strings.Join(out.Plan, "\n")
	if len(out.Plan) == 0 || !strings.Contains(text, "(actual ") {
		t.Fatalf("plan not annotated:\n%s", text)
	}
	if out.Trace != nil {
		t.Error("trace returned without being requested")
	}
	if srv.served.Value() != 1 {
		t.Errorf("served = %d, want 1", srv.served.Value())
	}
}

// TestExplainAnalyzeSQLGoesThroughExecution: an EXPLAIN ANALYZE statement
// executes and answers what the bare statement answers — rows, row ids and
// stats — with the annotated tree under "plan".
func TestExplainAnalyzeSQLGoesThroughExecution(t *testing.T) {
	srv, ts := testServer(t, 300, 0, serverConfig{})
	const sql = "SELECT * FROM loans WHERE good_credit(id) = 1"
	var outs [2]queryResponse
	for i, stmt := range []string{sql, "EXPLAIN ANALYZE " + sql} {
		status, body := mustPostQuery(t, ts.URL, queryRequest{SQL: stmt})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", stmt, status, body)
		}
		if err := json.Unmarshal(body, &outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	plain, out := outs[0], outs[1]
	if out.Stats.Evaluations == 0 || out.RowCount == 0 {
		t.Fatalf("EXPLAIN ANALYZE did not execute the query: %d evaluations, %d rows",
			out.Stats.Evaluations, out.RowCount)
	}
	if !reflect.DeepEqual(out.Rows, plain.Rows) || !reflect.DeepEqual(out.RowIDs, plain.RowIDs) ||
		!reflect.DeepEqual(out.Columns, plain.Columns) {
		t.Fatalf("EXPLAIN ANALYZE changed the result set: %d rows, want %d", out.RowCount, plain.RowCount)
	}
	if plain.Plan != nil {
		t.Errorf("bare statement carries a plan: %v", plain.Plan)
	}
	if len(out.Plan) == 0 || !strings.Contains(strings.Join(out.Plan, "\n"), "(actual ") {
		t.Fatalf("plan not annotated: %v", out.Plan)
	}
	if srv.served.Value() != 2 || srv.queryDur.Count() != 2 {
		t.Errorf("served = %d, query_duration count = %d, want 2 and 2", srv.served.Value(), srv.queryDur.Count())
	}
}

func TestQueryTraceReturnsSpans(t *testing.T) {
	_, ts := testServer(t, 300, 0, serverConfig{})
	status, body := mustPostQuery(t, ts.URL, queryRequest{
		SQL:   "SELECT * FROM loans WHERE good_credit(id) = 1",
		Trace: true,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out queryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, s := range out.Trace {
		names[s.Name] = true
	}
	for _, want := range []string{"parse", "bind", "plan", "op:scan", "op:exact-eval", "materialize"} {
		if !names[want] {
			t.Errorf("missing span %q in %v", want, names)
		}
	}
}

func TestTraceLogWritesJSONLines(t *testing.T) {
	srv, ts := testServer(t, 100, 0, serverConfig{})
	var buf bytes.Buffer
	srv.traceLog = &traceLogger{w: &buf}
	for i := 0; i < 2; i++ {
		// No "trace" in the request: -trace-log alone must capture spans.
		status, body := mustPostQuery(t, ts.URL, queryRequest{
			SQL: "SELECT * FROM loans WHERE good_credit(id) = 1",
		})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var rec traceRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if rec.SQL == "" || len(rec.Spans) == 0 {
			t.Fatalf("empty trace record: %+v", rec)
		}
	}
}
