package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/table"
)

// serve_http drives a live predsqld over HTTP: the production path from
// admission through parse, cache-served execution and rendering to
// JSON/NDJSON on the wire. The server is a real subprocess on a port
// chosen free at run time; its own /metrics are cross-checked against
// what the clients sent, and its SIGTERM drain is part of the run.

// buildServer compiles predsqld into dir. It runs before any timer
// starts: set-up time excludes `go build`.
func buildServer(ctx context.Context, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "predsqld"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "repro/cmd/predsqld")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building predsqld: %v\n%s", err, out)
	}
	return bin, nil
}

// server is a running predsqld.
type server struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
}

// drainTimeout bounds how long a SIGTERM'd server may take to exit; an
// idle predsqld drains in milliseconds.
const drainTimeout = 15 * time.Second

// startServer spawns predsqld on a free loopback port and waits for
// /healthz. It returns how long that took.
func startServer(ctx context.Context, bin string, args ...string) (*server, time.Duration, error) {
	// Ask the kernel for a free port, then hand it to the server. Another
	// process could take it in between; the health wait would report that.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()

	s := &server{url: "http://" + addr}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stderr = &s.stderr
	dieWithParent(s.cmd)
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second || ctx.Err() != nil {
			s.kill()
			return nil, 0, fmt.Errorf("predsqld never became healthy: %v\n%s", err, s.stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}

// stop drains the server with SIGTERM and waits for it to end, killing it
// if the drain hangs. It returns the server's peak RSS.
func (s *server) stop() (rssMB float64, err error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return 0, fmt.Errorf("signalling predsqld: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(drainTimeout):
		_ = s.cmd.Process.Kill()
		<-done
		return 0, fmt.Errorf("predsqld did not drain within %v of SIGTERM", drainTimeout)
	}
	if err != nil {
		return 0, fmt.Errorf("predsqld exited uncleanly after SIGTERM: %v\n%s", err, s.stderr.String())
	}
	return maxRSSMB(s.cmd.ProcessState), nil
}

// conn is one closed-loop client: its own transport, so its requests share
// one connection, and its own receive buffer.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
	chunk  []byte
}

func newConn() *conn {
	return &conn{
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		chunk:  make([]byte, 64<<10),
	}
}

// reply is a fully received response. body is valid until the conn's next
// request.
type reply struct {
	start     time.Time
	latency   time.Duration // request sent → last byte read
	firstByte time.Duration // request sent → first body byte read
	status    int
	body      []byte
}

func (c *conn) do(ctx context.Context, method, url string, payload any) (reply, error) {
	var body io.Reader
	if payload != nil {
		data, err := json.Marshal(payload)
		if err != nil {
			return reply{}, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return reply{}, err
	}
	c.buf.Reset()
	r := reply{start: time.Now()}
	resp, err := c.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	for {
		n, err := resp.Body.Read(c.chunk)
		if n > 0 {
			if r.firstByte == 0 {
				r.firstByte = time.Since(r.start)
			}
			c.buf.Write(c.chunk[:n])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return reply{}, err
		}
	}
	r.latency = time.Since(r.start)
	r.status, r.body = resp.StatusCode, c.buf.Bytes()
	return r, nil
}

// queryRequest / queryReply mirror POST /query's wire format (the rows
// themselves are never decoded: row ids are what ground truth is about).
type queryRequest struct {
	SQL    string `json:"sql"`
	Stream bool   `json:"stream,omitempty"`
	Trace  bool   `json:"trace,omitempty"`
	Limit  int    `json:"limit,omitempty"`
}

type queryReply struct {
	RowIDs    []int          `json:"row_ids"`
	RowCount  int            `json:"row_count"`
	Truncated bool           `json:"truncated"`
	Stats     wireStats      `json:"stats"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Trace     []obs.SpanJSON `json:"trace"`
}

// checkBuffered decodes a buffered response and holds it to its own
// arithmetic: every row id the server counted must be there.
func checkBuffered(r reply) (queryReply, error) {
	var q queryReply
	if r.status != http.StatusOK {
		return q, fmt.Errorf("POST /query answered %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if err := json.Unmarshal(r.body, &q); err != nil {
		return q, fmt.Errorf("decoding response: %w", err)
	}
	if !q.Truncated && q.RowCount != len(q.RowIDs) {
		return q, fmt.Errorf("row_count %d but %d row ids", q.RowCount, len(q.RowIDs))
	}
	return q, nil
}

type serveHTTP struct {
	e        *env
	d        *dataset.Dataset
	srv      *server
	conns    []*conn
	ops      int
	baseline float64
	contract core.Constraints
	udfs     []udfDef

	approxSQL, streamSQL string

	before  map[string]float64 // the server's counters when the round began
	sent    atomic.Int64       // requests since then
	mu      sync.Mutex
	scrapes []float64 // ms per GET /metrics
	waiting float64   // peak of predsqld_admission_waiting over scrapes
	static  map[string]float64
}

func (w *serveHTTP) setup(ctx context.Context, e *env) error {
	d, err := generate(e, dataset.Census)
	if err != nil {
		return err
	}
	w.e, w.d, w.ops, w.contract = e, d, e.scaled(opsServeHTTP, 2), defaultContract
	w.udfs = []udfDef{{"f", labelUDF(d.Labels)}}
	w.approxSQL = "SELECT id FROM census WHERE f(id) = 1" + withClause(0.9, 0.9, 0.9, "marital_status")
	w.streamSQL = "SELECT * FROM census WHERE f(id) = 1"

	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return err
	}
	csvPath := filepath.Join(e.workDir, "census.csv")
	truthPath := filepath.Join(e.workDir, "census_labels.csv")
	if err := writeFile(csvPath, func(f io.Writer) error { return table.WriteCSV(d.Table, f) }); err != nil {
		return err
	}
	err = writeFile(truthPath, func(f io.Writer) error {
		var buf bytes.Buffer
		buf.WriteString("id,label\n")
		for id, l := range d.Labels {
			v := 0
			if l {
				v = 1
			}
			fmt.Fprintf(&buf, "%d,%d\n", id, v)
		}
		_, err := f.Write(buf.Bytes())
		return err
	})
	if err != nil {
		return err
	}

	var startup time.Duration
	w.srv, startup, err = startServer(ctx, e.serverBin,
		"-table", "census="+csvPath, "-truth", truthPath, "-udf", "f",
		"-seed", fmt.Sprint(e.seed), "-data-dir", "")
	if err != nil {
		return err
	}
	w.static = map[string]float64{"predsqld.startup_ms": ms(startup)}
	for i := 0; i < min(runtime.NumCPU(), 2); i++ {
		w.conns = append(w.conns, newConn())
	}

	// One exact query pays for every verdict: it fills the always-on
	// cross-query cache, and its cost is the evaluate-everything baseline
	// of each of the op's two statements.
	r, err := w.conns[0].do(ctx, http.MethodPost, w.srv.url+"/query",
		queryRequest{SQL: "SELECT id FROM census WHERE f(id) = 1", Limit: 1})
	if err != nil {
		return err
	}
	q, err := checkBuffered(r)
	if err != nil {
		return err
	}
	if q.Stats.Evaluations != d.Table.NumRows() || q.RowCount != d.TotalCorrect() {
		return fmt.Errorf("cold exact query: %d evaluations, %d rows; want %d, %d",
			q.Stats.Evaluations, q.RowCount, d.Table.NumRows(), d.TotalCorrect())
	}
	w.baseline = 2 * q.Stats.Cost
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (w *serveHTTP) shape() (int, int)     { return len(w.conns), w.ops }
func (w *serveHTTP) baselineCost() float64 { return w.baseline }
func (w *serveHTTP) rho() float64          { return w.contract.Rho }

// The server's RNG advances with every approximate query, so rounds are
// not replicas; only the exact statement's answer is reproducible.
func (w *serveHTTP) replays() bool { return false }

func (w *serveHTTP) scrape(ctx context.Context) (map[string]float64, error) {
	r, err := w.conns[0].do(ctx, http.MethodGet, w.srv.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	m, err := obs.ParseExposition(bytes.NewReader(r.body))
	if err != nil {
		return nil, fmt.Errorf("server exposition: %w", err)
	}
	w.mu.Lock()
	w.scrapes = append(w.scrapes, ms(r.latency))
	w.waiting = max(w.waiting, m["predsqld_admission_waiting"])
	w.mu.Unlock()
	return m, nil
}

func (w *serveHTTP) beginRound(ctx context.Context) error {
	var err error
	w.before, err = w.scrape(ctx)
	w.sent.Store(0)
	return err
}

func (w *serveHTTP) endRound(ctx context.Context) []string {
	after, err := w.scrape(ctx)
	if err == nil {
		err = checkServerCounters(w.before, after, int(w.sent.Load()))
	}
	if err != nil {
		return []string{err.Error()}
	}
	return nil
}

func (w *serveHTTP) op(ctx context.Context, c, _ int, rec *opRec) (st opStats) {
	conn, n := w.conns[c], w.d.Table.NumRows()
	var bytesIn, serverMS float64

	// Buffered approximate query.
	w.sent.Add(1)
	r, err := conn.do(ctx, http.MethodPost, w.srv.url+"/query", queryRequest{SQL: w.approxSQL, Trace: rec != nil})
	if err != nil {
		st.fail("approximate query: %v", err)
		return st
	}
	st.clocked(r.start, r.latency)
	st.stmts++
	bytesIn += float64(len(r.body))
	if q, err := checkBuffered(r); err != nil {
		st.fail("approximate query: %v", err)
	} else {
		rec.harvest(r.start, r.latency, time.Duration(q.ElapsedMS*float64(time.Millisecond)), q.Trace)
		serverMS += q.ElapsedMS
		st.count(q.Stats.Evaluations, q.Stats.Sampled, q.Stats.CacheHits, q.Stats.CacheMisses, q.Stats.Cost, q.RowCount, n, 1)
		st.score(q.RowIDs, w.d.Truth(), w.d.TotalCorrect(), w.contract)
	}

	// Streamed exact query on the same connection.
	w.sent.Add(1)
	r, err = conn.do(ctx, http.MethodPost, w.srv.url+"/query", queryRequest{SQL: w.streamSQL, Stream: true, Trace: rec != nil})
	if err != nil {
		st.fail("streamed query: %v", err)
		return st
	}
	st.clocked(r.start, r.latency)
	st.stmts++
	bytesIn += float64(len(r.body))
	st.setLayer("predsqld.first_row_ms", ms(r.firstByte))
	st.setLayer("predsqld.stream_total_ms", ms(r.latency))
	if r.status != http.StatusOK {
		st.fail("streamed query answered %d: %s", r.status, bytes.TrimSpace(r.body))
	} else if ids, done, err := parseStream(r.body); err != nil {
		st.fail("streamed query: %v", err)
	} else {
		rec.harvest(r.start, r.latency, time.Duration(done.ElapsedMS*float64(time.Millisecond)), done.Trace)
		serverMS += done.ElapsedMS
		st.count(done.Stats.Evaluations, done.Stats.Sampled, done.Stats.CacheHits, done.Stats.CacheMisses, done.Stats.Cost, len(ids), n, 1)
		st.exact(ids, w.d.Truth(), w.d.TotalCorrect())
	}

	st.setLayer("predsqld.server_elapsed_p50_ms", serverMS)
	st.setLayer("predsqld.http_overhead_ms", ms(st.elapsed)-serverMS)
	st.setLayer("predsqld.response_bytes_per_row", ratio(bytesIn, float64(st.rowsOut)))
	return st
}

func (w *serveHTTP) probe() *probeInput {
	return &probeInput{
		seed: w.e.seed, tbl: w.d.Table, truth: w.d.Labels, udfs: w.udfs, cache: true,
		sql: w.approxSQL, groupCol: w.d.Spec.Predictor, cons: w.contract,
	}
}

func (w *serveHTTP) close() closeReport {
	if w.srv == nil {
		return closeReport{}
	}
	rep := closeReport{layer: w.static}
	for _, c := range w.conns {
		c.client.CloseIdleConnections()
	}
	rss, err := w.srv.stop()
	w.srv = nil
	if err != nil {
		rep.fails = append(rep.fails, err.Error())
	}
	rep.serverRSSMB = rss
	rep.layer["predsqld.waiting_peak"] = w.waiting
	rep.layer["obs.exposition_ms"] = median(w.scrapes)
	return rep
}
