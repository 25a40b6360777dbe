package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/labels"
	"repro/internal/obs"
	"repro/internal/stats"
)

// testServer builds an in-memory loans DB behind a server. udfDelay
// simulates an expensive predicate so per-request timeouts have teeth; the
// cross-query cache is disabled so repeated queries stay expensive.
func testServer(t *testing.T, n int, udfDelay time.Duration, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	rng := stats.NewRNG(9)
	var sb strings.Builder
	sb.WriteString("id,grade\n")
	truth := make(map[int64]bool, n)
	grades := []string{"A", "B", "C"}
	sels := []float64{0.9, 0.5, 0.1}
	for i := 0; i < n; i++ {
		truth[int64(i)] = rng.Bernoulli(sels[i%3])
		fmt.Fprintf(&sb, "%d,%s\n", i, grades[i%3])
	}
	db := predeval.Open(1)
	db.SetUDFCache(false)
	if err := db.LoadCSV("loans", strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	pred := labels.Delayed(labels.Predicate(truth), udfDelay)
	body := func(_ context.Context, v any) (bool, error) { return pred(v), nil }
	if err := db.RegisterUDFErr("good_credit", instrumentUDF(cfg.Metrics, "good_credit", body), 0); err != nil {
		t.Fatal(err)
	}
	srv := newServer(db, cfg)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postQuery returns an error instead of failing the test so it is safe to
// call from client goroutines (t.Fatal must not run off the test goroutine).
func postQuery(url string, req queryRequest) (int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
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

// mustPostQuery is postQuery for direct use on the test goroutine.
func mustPostQuery(t *testing.T, url string, req queryRequest) (int, []byte) {
	t.Helper()
	status, body, err := postQuery(url, req)
	if err != nil {
		t.Fatal(err)
	}
	return status, body
}

func TestServerQueryBasic(t *testing.T) {
	_, ts := testServer(t, 300, 0, serverConfig{})
	status, body := mustPostQuery(t, ts.URL, queryRequest{
		SQL: "SELECT * FROM loans WHERE good_credit(id) = 1",
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out queryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Stats.Exact || out.RowCount == 0 || len(out.Rows) != out.RowCount {
		t.Fatalf("response %+v", out)
	}
	if len(out.Columns) != 2 || out.Columns[0] != "id" {
		t.Fatalf("columns %v", out.Columns)
	}
}

func TestServerLimitTruncates(t *testing.T) {
	_, ts := testServer(t, 300, 0, serverConfig{})
	status, body := mustPostQuery(t, ts.URL, queryRequest{
		SQL:   "SELECT * FROM loans WHERE good_credit(id) = 1",
		Limit: 5,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out queryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 5 || !out.Truncated || out.RowCount <= 5 {
		t.Fatalf("limit ignored: rows=%d truncated=%v count=%d", len(out.Rows), out.Truncated, out.RowCount)
	}
	if len(out.RowIDs) != 5 {
		t.Fatalf("row_ids not truncated with the limit: %d", len(out.RowIDs))
	}
}

func TestServerBadRequests(t *testing.T) {
	_, ts := testServer(t, 60, 0, serverConfig{})
	if status, _ := mustPostQuery(t, ts.URL, queryRequest{SQL: "   "}); status != http.StatusBadRequest {
		t.Fatalf("empty sql: status %d", status)
	}
	if status, _ := mustPostQuery(t, ts.URL, queryRequest{SQL: "SELECT FROM"}); status != http.StatusBadRequest {
		t.Fatalf("bad sql: status %d", status)
	}
	if status, _ := mustPostQuery(t, ts.URL, queryRequest{SQL: "SELECT * FROM missing WHERE good_credit(id) = 1"}); status != http.StatusBadRequest {
		t.Fatalf("missing table: status %d", status)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", resp.StatusCode)
	}
}

// TestServerConcurrentMixedTimeouts is the acceptance-criteria test: ≥ 8
// concurrent queries under -race with per-request timeouts honored — the
// generous ones succeed, the tiny ones come back 504/408 without wedging a
// worker, and the server keeps serving afterwards.
func TestServerConcurrentMixedTimeouts(t *testing.T) {
	srv, ts := testServer(t, 240, 500*time.Microsecond, serverConfig{
		MaxConcurrent:  8,
		DefaultTimeout: 30 * time.Second,
	})
	const clients = 12
	statuses := make([]int, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := queryRequest{SQL: "SELECT * FROM loans WHERE good_credit(id) = 1"}
			if i%3 == 0 {
				req.TimeoutMS = 1 // cannot finish a 240-row scan at 500µs/call
			}
			// postQuery, not mustPostQuery: t.Fatal must stay on the test
			// goroutine, so transport errors are surfaced after the join.
			statuses[i], _, errs[i] = postQuery(ts.URL, req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	var ok, timedOut int
	for i, status := range statuses {
		switch {
		case i%3 == 0:
			// 504 if the deadline fired mid-query, 408 if it fired while
			// queueing for admission. Both honor the timeout.
			if status != http.StatusGatewayTimeout && status != http.StatusRequestTimeout {
				t.Errorf("client %d (1ms timeout): status %d", i, status)
			} else {
				timedOut++
			}
		default:
			if status != http.StatusOK {
				t.Errorf("client %d (generous timeout): status %d", i, status)
			} else {
				ok++
			}
		}
	}
	if ok != 8 || timedOut != 4 {
		t.Fatalf("ok=%d timedOut=%d, want 8/4", ok, timedOut)
	}

	// Counters add up and nothing is stuck in flight.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Served != int64(ok) || st.Timeouts+st.Rejected != int64(timedOut) {
		t.Fatalf("stats %+v, want served=%d timeouts+rejected=%d", st, ok, timedOut)
	}
	if st.InFlight != 0 {
		t.Fatalf("%d queries still in flight", st.InFlight)
	}
	if st.Tables["loans"] != 240 {
		t.Fatalf("tables %v", st.Tables)
	}

	// The pool recovered: one more query succeeds.
	if status, body := mustPostQuery(t, ts.URL, queryRequest{
		SQL: "SELECT * FROM loans WHERE good_credit(id) = 1",
	}); status != http.StatusOK {
		t.Fatalf("post-storm query: status %d: %s", status, body)
	}
	if got := srv.served.Value(); got != int64(ok)+1 {
		t.Fatalf("served %d, want %d", got, ok+1)
	}
}

// TestServerAdmissionControl: with one execution slot and a long-running
// query holding it, a short-deadline query must be turned away with 408
// instead of hanging.
func TestServerAdmissionControl(t *testing.T) {
	_, ts := testServer(t, 400, 1*time.Millisecond, serverConfig{
		MaxConcurrent:  1,
		DefaultTimeout: 30 * time.Second,
	})
	type result struct {
		status int
		err    error
	}
	slowDone := make(chan result, 1)
	go func() {
		status, _, err := postQuery(ts.URL, queryRequest{SQL: "SELECT * FROM loans WHERE good_credit(id) = 1"})
		slowDone <- result{status, err}
	}()
	// Give the slow query a moment to take the slot, then race a 5ms one.
	time.Sleep(50 * time.Millisecond)
	status, _ := mustPostQuery(t, ts.URL, queryRequest{
		SQL:       "SELECT * FROM loans WHERE good_credit(id) = 1",
		TimeoutMS: 5,
	})
	if status != http.StatusRequestTimeout {
		t.Fatalf("queued query status %d, want 408", status)
	}
	if r := <-slowDone; r.err != nil || r.status != http.StatusOK {
		t.Fatalf("slot-holding query: status %d err %v", r.status, r.err)
	}
}

// TestServerExplainFlagAnalyzeIsAdmitted: "explain": true over an EXPLAIN
// ANALYZE statement executes UDFs, so it must queue for a slot like any
// query — with the one slot held and a 50 ms deadline it is turned away
// with 408 and no UDF is invoked.
func TestServerExplainFlagAnalyzeIsAdmitted(t *testing.T) {
	srv, ts := testServer(t, 300, time.Millisecond, serverConfig{MaxConcurrent: 1})
	srv.sem <- struct{}{} // hold the one execution slot
	defer func() { <-srv.sem }()
	status, body := mustPostQuery(t, ts.URL, queryRequest{
		SQL:       "EXPLAIN ANALYZE SELECT * FROM loans WHERE good_credit(id) = 1",
		Explain:   true,
		TimeoutMS: 50,
	})
	if status != http.StatusRequestTimeout {
		t.Fatalf("status %d (%s), want 408", status, body)
	}
	if n := scrapeMetrics(t, ts.URL)[`predsqld_udf_duration_seconds_count{udf="good_credit"}`]; n != 0 {
		t.Fatalf("%v UDF calls outside admission control", n)
	}
}

func TestServerHealthz(t *testing.T) {
	_, ts := testServer(t, 10, 0, serverConfig{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}
}

// TestServerFaultingUDFSurfaces: a query whose id column defeats the
// simulated UDF must fail loudly (400 with the fault), not succeed with
// zero rows — the predsql silent-wrong-answer regression, server-side.
func TestServerFaultingUDFSurfaces(t *testing.T) {
	db := predeval.Open(1)
	if err := db.LoadCSV("notes", strings.NewReader("id,tag\nalpha,x\nbeta,y\n")); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterUDF("good_credit", labels.Predicate(map[int64]bool{}), 0); err != nil {
		t.Fatal(err)
	}
	srv := newServer(db, serverConfig{})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	status, body := mustPostQuery(t, ts.URL, queryRequest{SQL: "SELECT * FROM notes WHERE good_credit(id) = 1"})
	if status != http.StatusBadRequest {
		t.Fatalf("non-numeric ids: status %d body %s — silent empty result?", status, body)
	}
	if !strings.Contains(string(body), "non-numeric string id") {
		t.Fatalf("fault not surfaced: %s", body)
	}
}

// catalogServer is testServer with the cross-query cache ENABLED and a
// durable catalog attached in dir — the production persistence setup.
// The table and truth are derived from a fixed seed, so successive
// servers simulate restarts over the same data.
func catalogServer(t *testing.T, n int, dir string) (*server, *httptest.Server, *atomic.Int64) {
	t.Helper()
	rng := stats.NewRNG(9)
	var sb strings.Builder
	sb.WriteString("id,grade\n")
	truth := make(map[int64]bool, n)
	grades := []string{"A", "B", "C"}
	sels := []float64{0.9, 0.5, 0.1}
	for i := 0; i < n; i++ {
		truth[int64(i)] = rng.Bernoulli(sels[i%3])
		fmt.Fprintf(&sb, "%d,%s\n", i, grades[i%3])
	}
	db := predeval.Open(1)
	if err := db.LoadCSV("loans", strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	calls := new(atomic.Int64)
	if err := db.RegisterUDF("good_credit", func(v any) bool {
		calls.Add(1)
		return truth[v.(int64)]
	}, 0); err != nil {
		t.Fatal(err)
	}
	if err := db.OpenCatalog(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.CloseCatalog() })
	srv := newServer(db, serverConfig{})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts, calls
}

// TestServerDataDirPersistence drives the persistence wiring end to end:
// serve a workload, flush, "restart" onto the same data dir, and observe
// the repeated workload costing zero evaluations, with the catalog and
// cache counters visible in GET /stats.
func TestServerDataDirPersistence(t *testing.T) {
	dir := t.TempDir()
	const n = 300
	req := queryRequest{SQL: "SELECT * FROM loans WHERE good_credit(id) = 1"}

	srv1, ts1, calls1 := catalogServer(t, n, dir)
	status, body := mustPostQuery(t, ts1.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out1 queryResponse
	if err := json.Unmarshal(body, &out1); err != nil {
		t.Fatal(err)
	}
	if calls1.Load() != n || out1.Stats.CacheMisses != n {
		t.Fatalf("cold run: %d calls, %d misses, want %d", calls1.Load(), out1.Stats.CacheMisses, n)
	}
	srv1.flushCatalog()
	st1 := getStats(t, ts1.URL)
	if st1.Catalog == nil || st1.Catalog.OutcomeRows != n || st1.Catalog.Flushes != 1 {
		t.Fatalf("catalog stats after flush: %+v", st1.Catalog)
	}
	if err := srv1.db.CloseCatalog(); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh server, same directory.
	_, ts2, calls2 := catalogServer(t, n, dir)
	status, body = mustPostQuery(t, ts2.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out2 queryResponse
	if err := json.Unmarshal(body, &out2); err != nil {
		t.Fatal(err)
	}
	if calls2.Load() != 0 || out2.Stats.Evaluations != 0 {
		t.Fatalf("warm restart paid %d calls / %d evaluations, want 0", calls2.Load(), out2.Stats.Evaluations)
	}
	if out2.Stats.CacheHits != n {
		t.Fatalf("warm restart cache hits %d, want %d", out2.Stats.CacheHits, n)
	}
	if out2.RowCount != out1.RowCount {
		t.Fatalf("restart changed the answer: %d vs %d rows", out2.RowCount, out1.RowCount)
	}
	st2 := getStats(t, ts2.URL)
	if st2.Catalog == nil || st2.Catalog.OutcomeRows != n {
		t.Fatalf("catalog stats after restart: %+v", st2.Catalog)
	}
	if st2.Cache.Hits != int64(n) {
		t.Fatalf("server cache counters after restart: %+v", st2.Cache)
	}
}

// TestServerCatalogFlusher exercises the periodic flusher: facts become
// durable without an explicit flush call.
func TestServerCatalogFlusher(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _ := catalogServer(t, 60, dir)
	stop := srv.startCatalogFlusher(10 * time.Millisecond)
	defer stop()
	status, body := mustPostQuery(t, ts.URL, queryRequest{SQL: "SELECT * FROM loans WHERE good_credit(id) = 1"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.flushes.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic flusher never flushed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := getStats(t, ts.URL); st.Catalog == nil || st.Catalog.LastFlushUnix == 0 {
		t.Fatalf("flusher not visible in stats: %+v", st.Catalog)
	}
}

// getStats fetches and decodes GET /stats.
func getStats(t *testing.T, url string) statsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestServerExplainFlag(t *testing.T) {
	srv, ts := testServer(t, 300, 50*time.Millisecond, serverConfig{})
	status, body := mustPostQuery(t, ts.URL, queryRequest{
		SQL:     "SELECT * FROM loans WHERE good_credit(id) = 1 WITH RECALL 0.8 GROUP ON grade",
		Explain: true,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out struct {
		Plan []string `json:"plan"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Plan) == 0 || !strings.Contains(out.Plan[0], "merge") {
		t.Fatalf("plan %q", out.Plan)
	}
	joined := strings.Join(out.Plan, "\n")
	for _, want := range []string{"group-resolve[pinned] column=grade", "solve[constrained]", "cost"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("plan missing %q:\n%s", want, joined)
		}
	}
	// Each UDF call sleeps 50ms; an instant answer proves nothing executed.
	if srv.served.Value() != 1 {
		t.Fatalf("served %d", srv.served.Value())
	}

	// The EXPLAIN keyword takes the same fast path and payload as the flag.
	status, body = mustPostQuery(t, ts.URL, queryRequest{
		SQL: "  explain SELECT * FROM loans WHERE good_credit(id) = 1",
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	out.Plan = nil
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Plan) == 0 || !strings.Contains(out.Plan[0], "exact-eval") {
		t.Fatalf("plan %q", out.Plan)
	}
}

func TestServerParseErrorPositions(t *testing.T) {
	_, ts := testServer(t, 60, 0, serverConfig{})
	status, body := mustPostQuery(t, ts.URL, queryRequest{SQL: "SELECT *\nFROM loans\nWHERE good_credit(id) = 3"})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d: %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Line != 3 || er.Col != 25 {
		t.Fatalf("position %d:%d (%s)", er.Line, er.Col, body)
	}
	if !strings.Contains(er.Error, "sqlparse:") {
		t.Fatalf("error %q", er.Error)
	}
	// Engine-level errors carry no position.
	status, body = mustPostQuery(t, ts.URL, queryRequest{SQL: "SELECT * FROM missing WHERE good_credit(id) = 1"})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d: %s", status, body)
	}
	er = errorResponse{}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Line != 0 || er.Col != 0 {
		t.Fatalf("unexpected position on engine error: %s", body)
	}
}

func TestServerTables(t *testing.T) {
	_, ts := testServer(t, 123, 0, serverConfig{})
	resp, err := http.Get(ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Tables []struct {
			Name    string `json:"name"`
			Rows    int    `json:"rows"`
			Columns []struct {
				Name string `json:"name"`
				Type string `json:"type"`
			} `json:"columns"`
		} `json:"tables"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 1 || out.Tables[0].Name != "loans" || out.Tables[0].Rows != 123 {
		t.Fatalf("tables %+v", out.Tables)
	}
	cols := out.Tables[0].Columns
	if len(cols) != 2 || cols[0].Name != "id" || cols[0].Type != "int" || cols[1].Name != "grade" || cols[1].Type != "string" {
		t.Fatalf("columns %+v", cols)
	}
}
