package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/resilience"
)

// fallibleServer builds a server under the given failure policy over a
// 30-row table whose UDF labels even ids true — except the body panics on
// id 13 and errors on id 17.
func fallibleServer(t *testing.T, policy string) (*server, *httptest.Server) {
	t.Helper()
	db := predeval.Open(1)
	if err := db.SetFailurePolicy(policy); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("id,grade\n")
	for i := 0; i < 30; i++ {
		g := "A"
		if i%2 == 1 {
			g = "B"
		}
		fmt.Fprintf(&sb, "%d,%s\n", i, g)
	}
	if err := db.LoadCSV("loans", strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	db.SetRetryPolicy(resilience.Policy{
		MaxAttempts: 2,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	})
	err := db.RegisterUDFErr("good_credit", func(_ context.Context, v any) (bool, error) {
		switch id := v.(int64); id {
		case 13:
			panic("udf bug")
		case 17:
			return false, errors.New("backend down")
		default:
			return id%2 == 0, nil
		}
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(db, serverConfig{})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestServerDegradedResponse(t *testing.T) {
	_, ts := fallibleServer(t, "degrade")
	status, body := mustPostQuery(t, ts.URL, queryRequest{
		SQL: "SELECT id FROM loans WHERE good_credit(id) = 1",
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out queryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Errorf("response not marked degraded: %s", body)
	}
	if out.Stats.FailedRows != 2 { // ids 13 and 17
		t.Errorf("failed_rows = %d, want 2", out.Stats.FailedRows)
	}
	if out.Stats.Retries < 1 { // id 17's transient error is retried once
		t.Errorf("retries = %d, want ≥ 1", out.Stats.Retries)
	}
	// ids 0,2,...,28 match; the failed ids (13, 17) are odd, so the
	// surviving row set is complete.
	if out.RowCount != 15 {
		t.Errorf("row_count = %d, want 15", out.RowCount)
	}
}

func TestServerFailPolicyReturns400(t *testing.T) {
	srv, ts := fallibleServer(t, "fail")
	status, body := mustPostQuery(t, ts.URL, queryRequest{
		SQL: "SELECT id FROM loans WHERE good_credit(id) = 1",
	})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 under the default fail policy: %s", status, body)
	}
	if !strings.Contains(string(body), "good_credit") {
		t.Errorf("error does not name the failing UDF: %s", body)
	}
	if srv.panics.Value() != 0 {
		t.Error("a failing query must not count as a handler panic")
	}
	// The server survives: a statement over grade A (even ids, none of
	// them failing) answers under the same fail policy.
	status, body = mustPostQuery(t, ts.URL, queryRequest{
		SQL: "SELECT id FROM loans WHERE grade = 'A' AND good_credit(id) = 1",
	})
	if status != http.StatusOK {
		t.Fatalf("post-failure query: status %d: %s", status, body)
	}
}

// TestServerRejectsUnknownFailurePolicy: the failure policy is the
// server's (-on-failure), not a request's. A body carrying "on_failure",
// with a valid policy or not, is refused with 400 as an unknown field
// before anything runs.
func TestServerRejectsUnknownFailurePolicy(t *testing.T) {
	srv, ts := fallibleServer(t, "fail")
	for _, policy := range []string{"degrade", "explode"} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(
			`{"sql": "SELECT id FROM loans WHERE good_credit(id) = 1", "on_failure": "`+policy+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, `unknown field "on_failure"`) {
			t.Fatalf(`"on_failure": %q answered %d %q (%v), want a 400 naming the unknown field`, policy, resp.StatusCode, er.Error, err)
		}
	}
	if n := srv.served.Value() + srv.failed.Value(); n != 0 {
		t.Errorf("%v statements ran; a refused body runs none", n)
	}
}

// TestRecoverPanicsMiddleware is the regression test for the per-request
// panic-recovery middleware: a panicking handler answers 500 JSON, the
// panic is counted, and http.ErrAbortHandler keeps its meaning.
func TestRecoverPanicsMiddleware(t *testing.T) {
	srv, _ := fallibleServer(t, "fail")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	})
	mux.HandleFunc("GET /abort", func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	})
	h := srv.recoverPanics(mux)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/boom", nil)) // must not propagate
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rr.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil {
		t.Fatalf("panic response %q is not JSON: %v", rr.Body.String(), err)
	}
	if !strings.Contains(er.Error, "internal error") {
		t.Errorf("error payload %q", er.Error)
	}
	if srv.panics.Value() != 1 {
		t.Errorf("panics counter = %d, want 1", srv.panics.Value())
	}

	func() {
		defer func() {
			if recover() != http.ErrAbortHandler {
				t.Error("ErrAbortHandler must be re-panicked, not converted to 500")
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/abort", nil))
	}()
	if srv.panics.Value() != 1 {
		t.Errorf("ErrAbortHandler must not be counted: panics = %d", srv.panics.Value())
	}
}

func TestServerStatsResilienceSection(t *testing.T) {
	_, ts := fallibleServer(t, "degrade")
	status, _ := mustPostQuery(t, ts.URL, queryRequest{
		SQL: "SELECT id FROM loans WHERE good_credit(id) = 1",
	})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	m := scrapeMetrics(t, ts.URL)
	failedRows, degraded, retries := m["predsqld_failed_rows_total"], m["predsqld_degraded_queries_total"], m["predsqld_udf_retries_total"]
	if failedRows != 2 || degraded != 1 || retries < 1 {
		t.Errorf("failed rows %v, degraded queries %v, retries %v, want the degraded query's counters", failedRows, degraded, retries)
	}
	breaker := `{state="%s",table="loans",udf="good_credit"}`
	for state, want := range map[string]float64{"closed": 1, "open": 0, "half-open": 0} {
		key := "predsqld_breaker_state" + fmt.Sprintf(breaker, state)
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v: one closed good_credit breaker", key, got, ok, want)
		}
	}
}

// TestServerChaosWiring drives a chaos-wrapped UDF end to end: injected
// failures outlasting the retry budget produce a degraded partial result,
// and every failed row reaches /metrics.
func TestServerChaosWiring(t *testing.T) {
	db := predeval.Open(1)
	var sb strings.Builder
	sb.WriteString("id\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "%d\n", i)
	}
	if err := db.LoadCSV("t", strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	if err := db.SetFailurePolicy("degrade"); err != nil {
		t.Fatal(err)
	}
	db.SetRetryPolicy(resilience.Policy{
		MaxAttempts: 2,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	})
	// FailAttempts 3 > MaxAttempts 2: every row exhausts its retry budget.
	chaos := resilience.NewChaos(resilience.ChaosConfig{Seed: 3, FailAttempts: 3})
	err := db.RegisterUDFErr("p", chaos.Wrap(func(context.Context, any) (bool, error) {
		return true, nil
	}), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(db, serverConfig{})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	status, body := mustPostQuery(t, ts.URL, queryRequest{SQL: "SELECT id FROM t WHERE p(id) = 1"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out queryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.RowCount != 0 {
		t.Errorf("every row fails its whole retry budget: want an empty degraded result, got %s", body)
	}
	m := scrapeMetrics(t, ts.URL)
	if got := m["predsqld_failed_rows_total"]; got != 40 {
		t.Errorf("failed rows = %v, want 40", got)
	}
}
