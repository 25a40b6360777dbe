package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	predeval "repro"
	"repro/internal/core"
	"repro/internal/stats"
)

// env is what one workload run is parameterised by. Everything a workload
// feeds the program under test is generated from seed; the program itself
// only ever sees those inputs.
type env struct {
	seed uint64
	// scale shrinks tables and op counts; 1 in benchmark runs, small in the
	// smoke test, which drives the same code at a size that takes seconds.
	scale float64
	// workDir is scratch space inside the checkout (CSV files, the catalog
	// directory); the caller removes it on every exit path.
	workDir string
	// serverBin is the predsqld binary serve_http spawns, built before any
	// timer starts.
	serverBin string
}

// scaled applies env.scale to a count, keeping at least floor.
func (e *env) scaled(n, floor int) int {
	return max(floor, int(math.Round(float64(n)*e.scale)))
}

// workload is one set of inputs the benchmark runs. A round is a fixed
// list of ops; beginRound resets whatever state ops mutate (a fresh DB at
// the same seed), so every round of an in-process workload replays the
// same work: spread between rounds is noise, and count metrics repeat
// exactly.
type workload interface {
	// setup generates the inputs and loads them; all of it is charged to
	// setup_s.
	setup(ctx context.Context, e *env) error
	// shape reports the closed-loop client count and the ops each client
	// issues per round.
	shape() (clients, ops int)
	beginRound(ctx context.Context) error
	// op runs op i of client c and verifies its answers after its timers
	// have stopped. rec is nil in the untraced pass.
	op(ctx context.Context, c, i int, rec *opRec) opStats
	// endRound runs round-level checks and returns what they found wrong.
	endRound(ctx context.Context) []string
	// baselineCost is the cost of one op's statements with their WITH
	// clause removed, measured cold during setup.
	baselineCost() float64
	// replays reports whether rounds are exact replicas (checked).
	replays() bool
	// rho is the PROBABILITY of the workload's approximate statements.
	rho() float64
	// probe describes the inputs the per-layer probes run on.
	probe() *probeInput
	// close releases what setup acquired and reports late findings (the
	// server's drain, its peak RSS).
	close() closeReport
}

type closeReport struct {
	fails       []string
	serverRSSMB float64
	layer       map[string]float64
}

// opStats is what one op reports: its latency (the sum of its statements'
// timers — verification runs between and after them, unclocked), the
// program's own counters, and everything the checkers found.
type opStats struct {
	start   time.Time
	elapsed time.Duration
	stmts   int

	evals, sampled, rowsOut, hits, misses int
	cost                                  float64

	approx, met        int
	precSum, recSum    float64
	precMin, recMin    float64
	hash               uint64
	fails              []string
	layer              map[string]float64 // harness timers, keyed by per-layer metric name
	coverage, untraced float64            // traced pass only
}

func (s *opStats) fail(format string, args ...any) {
	s.fails = append(s.fails, fmt.Sprintf(format, args...))
}

// clocked adds a timed interval to the op's latency.
func (s *opStats) clocked(start time.Time, d time.Duration) {
	if s.start.IsZero() {
		s.start = start
	}
	s.elapsed += d
}

func (s *opStats) setLayer(name string, v float64) {
	if s.layer == nil {
		s.layer = map[string]float64{}
	}
	s.layer[name] += v
}

// count folds one statement's execution statistics in and enforces the
// evaluation bound.
func (s *opStats) count(evals, sampled, hits, misses int, cost float64, rowsOut, inputRows, predicates int) {
	s.evals += evals
	s.sampled += sampled
	s.hits += hits
	s.misses += misses
	s.cost += cost
	s.rowsOut += rowsOut
	if err := checkEvaluations(evals, inputRows, predicates); err != nil {
		s.fail("%v", err)
	}
}

// fold mixes an answer into the op's hash, which replicas and the traced
// pass must reproduce.
func (s *opStats) fold(ids []int) { s.hash = s.hash*31 + hashIDs(ids) }

// exact verifies an exact statement's answer.
func (s *opStats) exact(ids []int, want func(int) bool, wantCount int) {
	if err := checkExact(ids, want, wantCount); err != nil {
		s.fail("%v", err)
	}
	s.fold(ids)
}

// score rates an approximate statement against (α, β). Missing the
// contract is not an error by itself — the contract allows it with
// probability 1−ρ — so it is counted, and judged per workload.
func (s *opStats) score(ids []int, truth func(int) bool, totalCorrect int, cons core.Constraints) {
	p, r := quality(ids, truth, totalCorrect)
	if s.approx == 0 || p < s.precMin {
		s.precMin = p
	}
	if s.approx == 0 || r < s.recMin {
		s.recMin = r
	}
	s.approx++
	s.precSum += p
	s.recSum += r
	if p >= cons.Alpha && r >= cons.Beta {
		s.met++
	}
}

// approximate scores an approximate answer that replicas must reproduce.
func (s *opStats) approximate(ids []int, truth func(int) bool, totalCorrect int, cons core.Constraints) {
	s.score(ids, truth, totalCorrect, cons)
	s.fold(ids)
}

// query runs one statement through the library facade, timed, traced when
// rec is set, and accounted. It returns nil after recording a failure.
func (s *opStats) query(ctx context.Context, rec *opRec, db *predeval.DB, sql string, inputRows, predicates int) *predeval.Rows {
	ctx, done := rec.statement(ctx)
	t0 := time.Now()
	rows, err := db.QueryContext(ctx, sql)
	d := time.Since(t0)
	done(d)
	s.clocked(t0, d)
	s.stmts++
	if err != nil {
		s.fail("%s: %v", sql, err)
		return nil
	}
	st := rows.Stats()
	s.count(st.Evaluations, st.Sampled, st.CacheHits, st.CacheMisses, st.Cost, rows.Len(), inputRows, predicates)
	return rows
}

// roundAgg is one round folded together.
type roundAgg struct {
	wall   time.Duration
	ops    []opStats // client-major
	fails  []string
	failed int // ops with at least one finding, plus round-level findings
}

func (r *roundAgg) latenciesMS() []float64 {
	out := make([]float64, len(r.ops))
	for i, o := range r.ops {
		out[i] = float64(o.elapsed.Nanoseconds()) / 1e6
	}
	return out
}

// signature summarises the round's deterministic outputs; replicas agree.
func (r *roundAgg) signature() [4]uint64 {
	var sig [4]uint64
	for _, o := range r.ops {
		sig[0] += uint64(o.evals)
		sig[1] += uint64(o.sampled)
		sig[2] += uint64(o.rowsOut)
		sig[3] = sig[3]*1099511628211 + o.hash
	}
	return sig
}

// runRound plays one round: every client issues its ops back to back,
// each waiting for its reply (closed loop).
func runRound(ctx context.Context, w workload, rec *recorder, opBase int) (*roundAgg, error) {
	if err := w.beginRound(ctx); err != nil {
		return nil, err
	}
	clients, ops := w.shape()
	agg := &roundAgg{ops: make([]opStats, clients*ops)}
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				slot := c*ops + i
				or := rec.beginOp(opBase + slot)
				st := w.op(ctx, c, i, or)
				or.finish(st.start, st.elapsed)
				if or != nil {
					var wall, covered time.Duration
					for _, t := range or.stmts {
						wall += t.wall
						covered += t.covered
					}
					if wall > 0 {
						st.coverage = float64(covered) / float64(wall)
						st.untraced = float64((wall - covered).Nanoseconds()) / 1e6
					}
				}
				agg.ops[slot] = st
			}
		}(c)
	}
	wg.Wait()
	agg.wall = time.Since(t0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	agg.fails = w.endRound(ctx)
	agg.failed = len(agg.fails)
	for _, o := range agg.ops {
		if len(o.fails) > 0 {
			agg.failed++
			agg.fails = append(agg.fails, o.fails...)
		}
	}
	return agg, nil
}

// runConfig selects what a workload process does.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// setupOnly stops after set-up and warm-up: the extra repetitions that
	// make setup_s a median.
	setupOnly bool
	scale     float64
	outDir    string
	workDir   string
	serverBin string
}

// runResult is what a workload process hands back to the process that
// spawned it.
type runResult struct {
	Workload  string            `json:"workload"`
	SetupS    float64           `json:"setup_s"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]sample `json:"metrics"`
	// ServerRSSMB, when a server is the program under test, is the
	// server's peak resident set over its whole life.
	ServerRSSMB float64 `json:"server_rss_mb,omitempty"`
	// Answers fingerprints the row ids the first measured round returned:
	// equal for equal seeds, different for different ones.
	Answers uint64 `json:"answers,omitempty"`
}

const (
	minRounds   = 3
	maxFailures = 10
)

// runWorkload is the whole life of one workload in one process: set-up,
// warm-up, measured rounds (or the traced pass), teardown.
func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	return drive(ctx, cfg, w)
}

// drive takes a workload through one process's worth of work.
func drive(ctx context.Context, cfg runConfig, w workload) (*runResult, error) {
	e := &env{seed: cfg.seed, scale: cfg.scale, workDir: cfg.workDir, serverBin: cfg.serverBin}
	res := &runResult{Workload: cfg.workload, Metrics: map[string]sample{}}
	note := func(r *roundAgg) {
		res.Attempted += len(r.ops)
		res.Failed += r.failed
		for _, f := range r.fails {
			if len(res.Failures) < maxFailures {
				res.Failures = append(res.Failures, f)
			}
		}
	}

	t0 := time.Now()
	if err := w.setup(ctx, e); err != nil {
		w.close()
		return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	closed := false
	finish := func() closeReport {
		closed = true
		rep := w.close()
		res.Failed += len(rep.fails)
		res.Failures = append(res.Failures, rep.fails...)
		res.ServerRSSMB = rep.serverRSSMB
		return rep
	}
	defer func() {
		if !closed {
			w.close()
		}
	}()
	warm, err := runRound(ctx, w, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", cfg.workload, err)
	}
	res.SetupS = time.Since(t0).Seconds()
	note(warm)
	if cfg.setupOnly {
		finish()
		return res, nil
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		err = tracedPass(ctx, cfg, w, res, note, budget, finish)
	} else {
		err = measuredPass(ctx, w, res, note, budget, finish)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return res, nil
}

// measuredPass runs untraced rounds until the budget is spent and reports
// the end-to-end metrics this process can see (the parent adds set-up
// time, a median over several set-ups, and a server's peak RSS).
func measuredPass(ctx context.Context, w workload, res *runResult, note func(*roundAgg), budget time.Duration, finish func() closeReport) error {
	var rounds []*roundAgg
	var rss []float64
	start := time.Now()
	for len(rounds) < minRounds || time.Since(start) < budget {
		resetPeakRSS()
		r, err := runRound(ctx, w, nil, 0)
		if err != nil {
			return err
		}
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		note(r)
		rounds, rss = append(rounds, r), append(rss, peak)
	}
	finish()
	checkReplicas(w, rounds, res)
	res.Answers = rounds[0].signature()[3]

	var p50, rate []float64
	var tot totals
	for _, r := range rounds {
		p50 = append(p50, median(r.latenciesMS()))
		rate = append(rate, float64(len(r.ops))/r.wall.Seconds())
		tot.add(r)
	}
	res.Metrics["op_p50_ms"] = sample{Value: median(p50), Samples: p50}
	res.Metrics["ops_per_s"] = sample{Value: median(rate), Samples: rate}
	res.Metrics["peak_rss_mb"] = sample{Value: median(rss), Samples: rss}
	res.Metrics["cost_ratio"] = sample{Value: tot.cost / (float64(tot.ops) * w.baselineCost())}
	checkGuarantee(w, tot, res)
	return nil
}

// totals sums op statistics over rounds.
type totals struct {
	ops, stmts, evals, sampled, rowsOut, hits, misses int
	cost                                              float64
	approx, met                                       int
	precSum, recSum, precMin, recMin                  float64
}

func (t *totals) add(r *roundAgg) {
	for _, o := range r.ops {
		t.ops++
		t.stmts += o.stmts
		t.evals += o.evals
		t.sampled += o.sampled
		t.rowsOut += o.rowsOut
		t.hits += o.hits
		t.misses += o.misses
		t.cost += o.cost
		if o.approx > 0 {
			if t.approx == 0 || o.precMin < t.precMin {
				t.precMin = o.precMin
			}
			if t.approx == 0 || o.recMin < t.recMin {
				t.recMin = o.recMin
			}
		}
		t.approx += o.approx
		t.met += o.met
		t.precSum += o.precSum
		t.recSum += o.recSum
	}
}

// guarantee is the share of approximate statements that met (α, β); a
// workload without approximate statements meets it trivially.
func (t *totals) guarantee() float64 {
	if t.approx == 0 {
		return 1
	}
	return float64(t.met) / float64(t.approx)
}

// checkReplicas holds replaying workloads to their word: every round must
// produce the same counts and the same row ids as the first.
func checkReplicas(w workload, rounds []*roundAgg, res *runResult) {
	if !w.replays() || len(rounds) == 0 {
		return
	}
	want := rounds[0].signature()
	for i, r := range rounds[1:] {
		if got := r.signature(); got != want {
			res.Failed++
			res.Failures = append(res.Failures,
				fmt.Sprintf("round %d is not a replica of round 0: %v vs %v", i+1, got, want))
		}
	}
}

// checkGuarantee rejects a run whose share of contract-meeting statements
// is inconsistent with ρ. Replicas repeat the same statements, so only
// one round's worth are independent trials.
func checkGuarantee(w workload, t totals, res *runResult) {
	met, n := t.met, t.approx
	if w.replays() && t.ops > 0 {
		clients, ops := w.shape()
		rounds := t.ops / (clients * ops)
		met, n = met/rounds, n/rounds
	}
	if !guaranteeConsistent(met, n, w.rho()) {
		res.Failed++
		res.Failures = append(res.Failures,
			fmt.Sprintf("only %d of %d approximate statements met their contract: inconsistent with rho=%.2f at significance %g",
				met, n, w.rho(), guaranteeSignificance))
	}
}

func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}
