package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const specPath = "../../BENCHMARK.json"

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMeetsContract holds BENCHMARK.json to the limits its consumers
// set, so a bad edit fails here and not in front of the driver.
func TestSpecMeetsContract(t *testing.T) {
	spec := mustSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Errorf("declared workload has no implementation: %v", err)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var setup *metricSpec
	largest := 0.0
	for i, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
		if m.Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != largest {
		t.Errorf("setup_s must be declared in s, lower is better, with the largest bound: %+v", setup)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	if len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(spec.PerLayer))
	}
}

// smokeConfig drives the real code path at a size that takes a second:
// tables and op counts scaled down, the minimum number of rounds.
func smokeConfig(t *testing.T, workload string, seed uint64, trace bool) runConfig {
	dir := t.TempDir()
	return runConfig{
		workload: workload, seed: seed, seconds: 0, trace: trace, scale: 0.05,
		outDir: dir, workDir: filepath.Join(dir, "work"), serverBin: testServerBin(t, workload),
	}
}

var serverBin string // built once per test binary

func testServerBin(t *testing.T, workload string) string {
	if workload != "serve_http" {
		return ""
	}
	if testing.Short() {
		t.Skip("serve_http builds and spawns predsqld; skipped under -short")
	}
	if serverBin == "" {
		dir, err := os.MkdirTemp("", "predbench-bin-")
		if err != nil {
			t.Fatal(err)
		}
		bin, err := buildServer(context.Background(), dir)
		if err != nil {
			t.Fatal(err)
		}
		serverBin = bin
	}
	return serverBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if serverBin != "" {
		os.RemoveAll(filepath.Dir(serverBin))
	}
	os.Exit(code)
}

func smoke(t *testing.T, spec *benchSpec, workload string, seed uint64, trace bool) (*runResult, *report) {
	t.Helper()
	cfg := smokeConfig(t, workload, seed, trace)
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := assemble(spec, trace, res, []float64{res.SetupS})
	if err != nil {
		t.Fatal(err) // a declared metric missing, or an undeclared one emitted
	}
	if !rep.Correct {
		t.Fatalf("%s (trace=%v) failed its own checks: %v", workload, trace, rep.Failures)
	}
	if trace {
		if _, err := os.Stat(tracePath(cfg.outDir, workload)); err != nil {
			t.Errorf("traced pass left no trace file: %v", err)
		}
	}
	if _, err := os.Stat(cfg.workDir); err == nil {
		if entries, _ := os.ReadDir(cfg.workDir); len(entries) > 0 && workload != "catalog_restart" && workload != "serve_http" {
			t.Errorf("%s left files in its scratch directory", workload)
		}
	}
	return res, rep
}

// repeatable lists the metrics that are counts made by the program: at one
// seed they must repeat exactly, run after run.
var repeatable = []string{
	"cost_ratio",
	"engine.udf_calls_per_op", "engine.cache_hit_ratio", "engine.batches_per_op",
	"core.sampled_per_op", "core.precision_mean", "core.precision_min",
	"core.recall_mean", "core.recall_min", "core.guarantee_met_ratio", "core.rows_out_per_call",
}

// TestSmoke runs every declared workload through both passes and checks
// that every metric BENCHMARK.json declares comes out, under a legal name;
// that counts repeat exactly at one seed; and that another seed changes the
// inputs.
func TestSmoke(t *testing.T) {
	spec := mustSpec(t)
	for _, w := range spec.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res, e2e := smoke(t, spec, w.Name, 1, false)
			_, layers := smoke(t, spec, w.Name, 1, true)
			for _, rep := range []*report{e2e, layers} {
				for name, v := range rep.Metrics {
					if !nameRE.MatchString(name) || v.Unit == "" {
						t.Errorf("metric %q (unit %q) is not reportable", name, v.Unit)
					}
				}
			}
			if e2e.Metrics["op_p50_ms"].Value <= 0 || e2e.Metrics["ops_per_s"].Value <= 0 {
				t.Errorf("timing metrics must be positive: %+v", e2e.Metrics)
			}
			if w.Name == "exact_scan" {
				rows := layers.Metrics["engine.udf_calls_per_op"].Value
				if want := 0.05 * 45000; rows != want {
					t.Errorf("exact_scan paid %v UDF calls per op, want one per row (%v)", rows, want)
				}
			}
			if w.Name == "serve_http" {
				if calls := layers.Metrics["engine.udf_calls_per_op"].Value; calls != 0 {
					t.Errorf("serve_http paid %v UDF calls per op after warm-up, want 0", calls)
				}
				return // the server's RNG advances: its counts are not replicas
			}

			again, e2e2 := smoke(t, spec, w.Name, 1, false)
			_, layers2 := smoke(t, spec, w.Name, 1, true)
			if again.Answers != res.Answers {
				t.Errorf("same seed, different answers: %x vs %x", again.Answers, res.Answers)
			}
			for _, name := range repeatable {
				a, okA := e2e.Metrics[name]
				b := e2e2.Metrics[name]
				if !okA {
					a, b = layers.Metrics[name], layers2.Metrics[name]
				}
				if a.Value != b.Value {
					t.Errorf("%s did not repeat at one seed: %v vs %v", name, a.Value, b.Value)
				}
			}
			other, _ := smoke(t, spec, w.Name, 2, false)
			if other.Answers == res.Answers {
				t.Errorf("seed 2 produced the same answers as seed 1: the seed does not reach the inputs")
			}
		})
	}
}

// corrupted is exact_scan with a predicate that lies about one row the
// ground truth accepts: the answer comes back one row short.
type corrupted struct{ exactScan }

func (w *corrupted) setup(ctx context.Context, e *env) error {
	if err := w.exactScan.setup(ctx, e); err != nil {
		return err
	}
	victim := int64(-1)
	for id, l := range w.d.Labels {
		if l {
			victim = int64(id)
			break
		}
	}
	honest := w.udfs[0].fn
	w.udfs = []udfDef{{"f", func(v any) bool { return v.(int64) != victim && honest(v) }}}
	return nil
}

// TestDroppedRowFailsTheRun injects the fault end to end: a result with one
// ground-truth row dropped must raise failed_ratio and fail the run.
func TestDroppedRowFailsTheRun(t *testing.T) {
	cfg := smokeConfig(t, "exact_scan", 1, false)
	res, err := drive(context.Background(), cfg, &corrupted{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != res.Attempted || res.Failed == 0 {
		t.Fatalf("every op dropped a row, yet %d of %d ops failed", res.Failed, res.Attempted)
	}
	rep, err := assemble(mustSpec(t), false, res, []float64{res.SetupS})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct {
		t.Fatal("a run with wrong answers was reported correct")
	}
}

func TestCheckExact(t *testing.T) {
	truth := []bool{true, false, true, true, false, true}
	want := func(r int) bool { return truth[r] }
	for _, tc := range []struct {
		name string
		ids  []int
		ok   bool
	}{
		{"exact", []int{0, 2, 3, 5}, true},
		{"one ground-truth row dropped", []int{0, 2, 5}, false},
		{"a rejected row swapped in", []int{0, 1, 3, 5}, false},
		{"duplicate in place of a row", []int{0, 2, 2, 5}, false},
		{"out of order", []int{2, 0, 3, 5}, false},
	} {
		if err := checkExact(tc.ids, want, 4); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v", tc.name, err)
		}
	}
}

// TestBelowAlphaFailsTheRun: approximate results under the precision bound
// are counted as contract misses, and a run made of them is inconsistent
// with any rho worth asking for.
func TestBelowAlphaFailsTheRun(t *testing.T) {
	truth := func(r int) bool { return r%2 == 0 }
	var good, bad []int
	for r := 0; r < 1000; r++ {
		if truth(r) {
			good = append(good, r)
		}
		if truth(r) || r%5 == 1 { // one wrong row in six: precision 0.83 < 0.9
			bad = append(bad, r)
		}
	}
	var r roundAgg
	for i := 0; i < 10; i++ {
		var st opStats
		st.score(bad, truth, len(good), defaultContract)
		r.ops = append(r.ops, st)
	}
	var tot totals
	tot.add(&r)
	if tot.met != 0 || tot.guarantee() != 0 || tot.precMin >= defaultContract.Alpha {
		t.Fatalf("below-alpha results scored as meeting the contract: %+v", tot)
	}
	w := &exactScan{}
	w.ops, w.contract = 10, defaultContract
	res := &runResult{}
	checkGuarantee(w, tot, res)
	if res.Failed == 0 {
		t.Fatal("ten contract misses out of ten did not fail the run")
	}

	// The contract tolerates the odd miss: nine of ten at rho 0.9 passes.
	var st opStats
	st.score(good, truth, len(good), defaultContract)
	r.ops[0] = st
	tot = totals{}
	tot.add(&r)
	if tot.met != 1 {
		t.Fatalf("a perfect result was not counted as met: %+v", tot)
	}
	if !guaranteeConsistent(9, 10, 0.9) || guaranteeConsistent(2, 10, 0.9) {
		t.Fatal("binomial lower-tail test has the wrong shape")
	}
	// A table on which the plan is tight (conjunction's worst seeds meet
	// the contract on 7 statements of 11) must not refuse the run.
	if !guaranteeConsistent(7, 11, 0.9) {
		t.Fatal("7 of 11 at rho 0.9 refused: the gate would fire on the baseline")
	}
}

func TestParseStream(t *testing.T) {
	rows := `{"row_id":1,"row":["1","a"]}` + "\n" + `{"row_id":4,"row":["4","b"]}` + "\n"
	done := `{"done":true,"columns":["id","x"],"row_count":2,"truncated":false,"stats":{"evaluations":0},"elapsed_ms":1.5}` + "\n"
	ids, last, err := parseStream([]byte(rows + done))
	if err != nil || len(ids) != 2 || ids[1] != 4 || last.ElapsedMS != 1.5 {
		t.Fatalf("complete stream: ids %v, done %+v, err %v", ids, last, err)
	}
	for name, body := range map[string]string{
		"no done line":             rows,
		"done count off":           rows + strings.Replace(done, `"row_count":2`, `"row_count":3`, 1),
		"rows after done":          rows + done + rows,
		"mid-stream error":         rows + `{"error":"query exceeded its deadline"}` + "\n",
		"torn final line":          rows + done[:len(done)/2],
		"neither row nor done":     rows + `{"hello":1}` + "\n" + done,
		"empty body (no done too)": "",
	} {
		if _, _, err := parseStream([]byte(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestServerCounters(t *testing.T) {
	before := map[string]float64{seriesDurationCount: 7, seriesQueriesOK: 7}
	after := map[string]float64{seriesDurationCount: 47, seriesQueriesOK: 47}
	if err := checkServerCounters(before, after, 40); err != nil {
		t.Fatal(err)
	}
	after[seriesDurationCount] = 46 // the histogram lost one observation
	if err := checkServerCounters(before, after, 40); err == nil {
		t.Fatal("histogram count off by one went unnoticed")
	}
	after[seriesDurationCount], after[seriesQueriesOK] = 47, 48
	if err := checkServerCounters(before, after, 40); err == nil {
		t.Fatal("ok counter off by one went unnoticed")
	}
	delete(after, seriesQueriesOK)
	if err := checkServerCounters(before, after, 40); err == nil {
		t.Fatal("missing series went unnoticed")
	}
}

// stalling is serve_http whose second round never starts: the run must end
// in an error with the server stopped, not leaked.
type stalling struct {
	serveHTTP
	rounds int
	cancel context.CancelFunc
}

func (w *stalling) beginRound(ctx context.Context) error {
	if w.rounds++; w.rounds > 1 {
		w.cancel()
	}
	return w.serveHTTP.beginRound(ctx)
}

func TestServerStoppedOnEveryExitPath(t *testing.T) {
	cfg := smokeConfig(t, "serve_http", 1, false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &stalling{cancel: cancel}
	if _, err := drive(ctx, cfg, w); err == nil {
		t.Fatal("a cancelled run reported success")
	}
	if w.srv != nil {
		t.Fatal("the server outlived a cancelled run")
	}

	// And the ordinary path: drained, reaped, its exit status clean.
	srv := &serveHTTP{}
	res, err := drive(context.Background(), cfg, srv)
	if err != nil || res.Failed != 0 {
		t.Fatalf("plain run: %v, failures %v", err, res.Failures)
	}
	if srv.srv != nil || res.ServerRSSMB <= 0 {
		t.Fatalf("server not reaped (rss %v)", res.ServerRSSMB)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "op", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "stmt", StartUS: 5, EndUS: 95},
		{ID: 3, Parent: 2, Op: 1, Name: "parse", StartUS: 5, EndUS: 15},
		{ID: 4, Parent: 2, Op: 1, Name: "op:scan", StartUS: 20, EndUS: 80},
	}
	self := selfTimes(spans)
	if self[1] != 10 || self[2] != 20 || self[3] != 10 || self[4] != 60 {
		t.Fatalf("self times %v", self)
	}
	sums, n := perOpSums(spans)
	if n != 1 || sums["op:scan"][0] != 0.06 || sums[stmtCount][0] != 1 {
		t.Fatalf("per-op sums %v over %d ops", sums, n)
	}
}

func writeResult(t *testing.T, dir, name string, edit func(*resultFile)) string {
	t.Helper()
	spec := mustSpec(t)
	rf := resultFile{Seed: 1, Workloads: map[string]workloadResult{}}
	for _, w := range spec.Workloads {
		rep := &report{Correct: true, Attempted: 100, Metrics: map[string]sample{}}
		for _, m := range spec.EndToEnd {
			rep.Metrics[m.Name] = sample{Value: 100, Unit: m.Unit, Samples: []float64{99, 100, 100, 100, 101}}
		}
		rf.Workloads[w.Name] = workloadResult{EndToEnd: rep}
	}
	if edit != nil {
		edit(&rf)
	}
	data, err := json.Marshal(rf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	spec := mustSpec(t)
	dir := t.TempDir()
	base := writeResult(t, dir, "a.json", nil)
	set := func(workload, metric string, s sample) func(*resultFile) {
		return func(rf *resultFile) { rf.Workloads[workload].EndToEnd.Metrics[metric] = s }
	}
	for _, tc := range []struct {
		name     string
		edit     func(*resultFile)
		code     int
		contains string
	}{
		{"A/A", nil, 0, "0 violations, 0 unresolved"},
		{"slower beyond the bound", set("exact_scan", "op_p50_ms", sample{Value: 130, Samples: []float64{129, 130, 131}}), 1, "VIOLATION"},
		{"faster", set("exact_scan", "op_p50_ms", sample{Value: 50, Samples: []float64{50, 50, 50}}), 0, "0 violations"},
		{"throughput down beyond the bound", set("serve_http", "ops_per_s", sample{Value: 70}), 1, "VIOLATION"},
		{"spread wider than the bound", set("conjunction", "op_p50_ms", sample{Value: 100, Samples: []float64{60, 80, 100, 120, 140}}), 0, "unresolved"},
		{"more failures", func(rf *resultFile) { rf.Workloads["exact_scan"].EndToEnd.Failed = 1 }, 1, "VIOLATION"},
	} {
		var out bytes.Buffer
		code, err := compareFiles(&out, spec, base, writeResult(t, dir, "b.json", tc.edit))
		if err != nil || code != tc.code || !strings.Contains(out.String(), tc.contains) {
			t.Errorf("%s: code %d (want %d), err %v, output:\n%s", tc.name, code, tc.code, err, out.String())
		}
	}
}

// TestScratchRemovedWhenChildFails runs a real child process that fails:
// whatever the child does, its scratch directory is gone afterwards.
func TestScratchRemovedWhenChildFails(t *testing.T) {
	dir := t.TempDir()
	o := options{workload: "exact_scan", outDir: dir, seconds: 1}
	start := time.Now()
	// os.Executable() is the test binary: handed -child it fails on the
	// unknown flag, which is the failure path under test.
	if _, err := spawn(context.Background(), o, "measure", ""); err == nil {
		t.Fatal("a child that cannot run reported success")
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 0 {
		t.Fatalf("scratch left behind after %v: %v %v", time.Since(start), entries, err)
	}
}
