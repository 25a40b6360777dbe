package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzQueryRequest posts arbitrary bytes as a POST /query body through the
// server's handler, without a socket, and holds every answer to four rules:
// the handler never panics; the status is one the endpoint documents (200,
// 400, 408, 499 or 504); a 200 body is one JSON object, or NDJSON whose
// every line is an object and whose last line is a done or an error line;
// and a 200 that does not end in an error line was admitted and served once,
// advancing queries_total{status="ok"} and the query-latency histogram's
// count by exactly one each. The seeds are the request shapes the server
// tests send, plus bodies with unknown fields or negative numbers.
func FuzzQueryRequest(f *testing.F) {
	const sel = "SELECT * FROM loans WHERE good_credit(id) = 1"
	for _, req := range []queryRequest{
		{SQL: sel},
		{SQL: sel, Limit: 5},
		{SQL: "   "},
		{SQL: "SELECT FROM"},
		{SQL: "SELECT bogus"},
		{SQL: "SELECT * FROM missing WHERE good_credit(id) = 1"},
		{SQL: "SELECT *\nFROM loans\nWHERE good_credit(id) = 3"},
		{SQL: sel, TimeoutMS: 1},
		{SQL: sel, TimeoutMS: 9_223_372_036_855},
		{SQL: sel, TimeoutMS: math.MaxInt64},
		{SQL: "EXPLAIN ANALYZE " + sel, TimeoutMS: 50},
		{SQL: "EXPLAIN ANALYZE " + sel},
		{SQL: "EXPLAIN " + sel + " WITH RECALL 0.8 GROUP ON grade"},
		{SQL: "  explain " + sel},
		{SQL: sel, Trace: true},
		{SQL: sel + " WITH PRECISION 0.9 RECALL 0.9 PROBABILITY 0.9 GROUP ON grade"},
		{SQL: sel, Stream: true},
		{SQL: "SELECT id FROM loans WHERE good_credit(id) = 1", Stream: true, Limit: 5},
		{SQL: "SELECT id, grade FROM loans WHERE good_credit(id) = 1", Stream: true, Trace: true},
		{SQL: "EXPLAIN SELECT id FROM loans WHERE good_credit(id) = 1", Stream: true},
		{SQL: "EXPLAIN ANALYZE SELECT id FROM loans WHERE good_credit(id) = 1", Stream: true},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte("{not json"))
	f.Add([]byte(`{"sql": "` + sel + `", "explain": true}`))
	f.Add([]byte(`{"sql": "` + sel + `", "analyze": true}`))
	f.Add([]byte(`{"sql": "SELECT id FROM loans WHERE good_credit(id) = 1", "stream": true, "analyze": true}`))
	f.Add([]byte(`{"sql": "` + sel + `", "stream": true, "limit": -1}`))
	f.Add([]byte(`{"sql": "` + sel + `", "limit": -1}`))
	f.Add([]byte(`{"sql": "` + sel + `", "timeout_ms": -1}`))
	f.Add([]byte(`{"sql": "` + sel + `", "on_failure": "degrade"}`))
	f.Add([]byte(`{"sql": "` + sel + `", "on_failure": "explode"}`))

	srv, _ := testServer(f, 60, 0, serverConfig{})
	h := srv.handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		served, observed := srv.served.Value(), srv.queryDur.Count()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		countedOnce := func() {
			if ds, do := srv.served.Value()-served, srv.queryDur.Count()-observed; ds != 1 || do != 1 {
				t.Fatalf("%q: a 200 advanced queries_total{status=\"ok\"} by %d and the duration count by %d, want 1 and 1",
					body, ds, do)
			}
		}
		if n := srv.panics.Value(); n != 0 {
			t.Fatalf("%q: handler panicked (%d recovered): %s", body, n, rr.Body.Bytes())
		}
		switch rr.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestTimeout,
			statusClientClosedRequest, http.StatusGatewayTimeout:
		default:
			t.Fatalf("%q: status %d: %s", body, rr.Code, rr.Body.Bytes())
		}
		if rr.Code != http.StatusOK {
			return
		}
		var obj map[string]json.RawMessage
		if rr.Header().Get("Content-Type") != "application/x-ndjson" {
			if err := json.Unmarshal(rr.Body.Bytes(), &obj); err != nil {
				t.Fatalf("%q: 200 body is not one JSON object (%v): %s", body, err, rr.Body.Bytes())
			}
			countedOnce()
			return
		}
		lines := bytes.Split(bytes.TrimSuffix(rr.Body.Bytes(), []byte("\n")), []byte("\n"))
		for _, line := range lines {
			obj = nil
			if err := json.Unmarshal(line, &obj); err != nil {
				t.Fatalf("%q: NDJSON line is not a JSON object (%v): %s", body, err, line)
			}
		}
		if _, isErr := obj["error"]; !isErr {
			if string(obj["done"]) != "true" {
				t.Fatalf("%q: NDJSON ends in neither a done nor an error line: %s", body, lines[len(lines)-1])
			}
			countedOnce()
		}
	})
}
