package main

import (
	"bytes"
	"context"
	"runtime"
	"time"

	predeval "repro"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/resilience"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/table"
)

// Probes time calls into each layer's public functions on inputs taken
// from the workload — its table, its UDF, its statement — from outside the
// program's code. They run after the rounds, in the traced pass only.

// probeInput is what a workload lends the probes.
type probeInput struct {
	seed  uint64
	tbl   *table.Table
	truth []bool   // ground truth of the first UDF, by row
	udfs  []udfDef // as registered by the workload; the first is probed
	cache bool     // cross-query cache setting the workload runs with
	sql   string   // the workload's first statement
	// groupCol is the correlated column the statement groups on (or the
	// designated predictor, when the statement leaves discovery to the
	// engine).
	groupCol string
	cons     core.Constraints
}

// probeRows caps the rows the per-row probes walk: a Meter keeps an entry
// per row, and a million of them would dwarf the workload's own memory.
const probeRows = 1 << 16

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timeIt runs fn n times and returns nanoseconds, heap allocations and
// heap bytes per call.
func timeIt(n int, fn func()) (nsPer, allocsPer, bytesPer float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	return float64(d.Nanoseconds()) / float64(n),
		float64(b.Mallocs-a.Mallocs) / float64(n),
		float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// medianOf is the median of reps measurements.
func medianOf(reps int, measure func() (float64, error)) (float64, error) {
	vals := make([]float64, reps)
	for i := range vals {
		v, err := measure()
		if err != nil {
			return 0, err
		}
		vals[i] = v
	}
	return median(vals), nil
}

// clock measures one call's wall time in milliseconds.
func clock(fn func() error) func() (float64, error) {
	return func() (float64, error) {
		t0 := time.Now()
		err := fn()
		return ms(time.Since(t0)), err
	}
}

// burn is the expensive_udf predicate's work, shared with the pool probe:
// a fixed iteration count, not a time budget, so the work per call is the
// same on every host and run.
func burn(x uint64) uint64 {
	x |= 1
	for i := 0; i < burnRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

const burnRounds = 4000

func runProbes(ctx context.Context, in *probeInput) (map[string]float64, error) {
	m := map[string]float64{}
	for _, p := range []func(context.Context, *probeInput, map[string]float64) error{
		probeEngine, probeCore, probeExec, probeResilience, probeTable,
	} {
		if err := p(ctx, in, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// probeEngine times the statement through the parser, through the engine
// alone, and through the library facade; the facade's own share (the
// [][]string cell loop) is the difference.
func probeEngine(ctx context.Context, in *probeInput, m map[string]float64) error {
	ns, allocs, _ := timeIt(2000, func() { _, _ = sqlparse.Parse(in.sql) })
	m["sqlparse.parse_us"] = ns / 1e3
	m["sqlparse.parse_allocs"] = allocs

	stmt, err := sqlparse.Parse(in.sql)
	if err != nil {
		return err
	}
	const reps = 5
	db, err := openDB(in.seed, in.cache, []*table.Table{in.tbl}, in.udfs)
	if err != nil {
		return err
	}
	eng := db.Engine()
	rows := float64(in.tbl.NumRows())
	var execMS, directMS []float64
	_, _, batches0 := eng.BatchCounters()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := sqlparse.Parse(in.sql); err != nil {
			return err
		}
		t1 := time.Now()
		res, err := eng.ExecuteContext(ctx, stmt.Query)
		if err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := eng.Materialize(stmt.Query, res); err != nil {
			return err
		}
		execMS = append(execMS, ms(t2.Sub(t1)))
		directMS = append(directMS, ms(time.Since(t0)))
	}
	runtime.ReadMemStats(&b)
	_, _, batches1 := eng.BatchCounters()
	m["engine.execute_ms"] = median(execMS)
	m["engine.ns_per_input_row"] = median(execMS) * 1e6 / rows
	m["engine.alloc_bytes_per_row"] = float64(b.TotalAlloc-a.TotalAlloc) / (reps * rows)
	m["engine.allocs_per_row"] = float64(b.Mallocs-a.Mallocs) / (reps * rows)
	m["engine.batches_per_op"] = float64(batches1-batches0) / reps

	// A second DB at the same seed draws the same coins for the same
	// statements, so the two loops differ only by the facade.
	db, err = openDB(in.seed, in.cache, []*table.Table{in.tbl}, in.udfs)
	if err != nil {
		return err
	}
	full, err := medianOf(reps, clock(func() error {
		_, err := db.QueryContext(ctx, in.sql)
		return err
	}))
	if err != nil {
		return err
	}
	m["predeval.facade_ms"] = max(0, full-median(directMS))

	m["predeval.stream_first_batch_ms"], err = medianOf(3, func() (float64, error) {
		t0 := time.Now()
		first := -1.0
		_, err := db.QueryStream(ctx, in.sql, predeval.StreamOptions{}, func([]int, [][]string) error {
			if first < 0 {
				first = ms(time.Since(t0))
			}
			return nil
		})
		return max(0, first), err
	})
	return err
}

// groupsBy partitions a table's rows by a column, as the planner sees them.
func groupsBy(tbl *table.Table, column string) ([]core.Group, error) {
	idx, err := table.BuildGroupIndex(tbl, column)
	if err != nil {
		return nil, err
	}
	groups := make([]core.Group, 0, idx.NumGroups())
	for _, key := range idx.Keys() {
		groups = append(groups, core.Group{Key: key, Rows: idx.Rows(key)})
	}
	return groups, nil
}

// probeCore walks the paper's pipeline by hand — meter, sampler, planner,
// executor, column discovery — over the workload's groups and UDF.
func probeCore(ctx context.Context, in *probeInput, m map[string]float64) error {
	body := in.udfs[0].fn
	udf := core.UDFFunc(func(row int) bool { return body(int64(row)) })
	n := min(in.tbl.NumRows(), probeRows)
	rows := make([]int, n)
	known := make(map[int]bool, n)
	for i := range rows {
		rows[i] = i
		known[i] = in.truth[i]
	}

	ns, allocs, _ := timeIt(3, func() {
		meter := core.NewMeter(udf)
		for _, r := range rows {
			meter.Eval(r)
		}
	})
	m["core.meter_eval_ns"] = ns / float64(n)
	m["core.meter_allocs_per_eval"] = allocs / float64(n)

	cache := core.NewSharedEvalCache()
	cache.Preload(known)
	ns, _, _ = timeIt(3, func() {
		meter := core.NewCachedMeter(udf, cache)
		for _, r := range rows {
			meter.Eval(r)
		}
	})
	m["core.cached_meter_hit_ns"] = ns / float64(n)

	groups, err := groupsBy(in.tbl, in.groupCol)
	if err != nil {
		return err
	}
	sizes := make([]int, len(groups))
	for i, g := range groups {
		sizes[i] = len(g.Rows)
	}
	targets := core.TwoThirdPowerAllocator{Num: 2.25}.Allocate(sizes)
	rng := stats.NewRNG(in.seed)
	cost := core.DefaultCost
	par := runtime.GOMAXPROCS(0)

	var sampler *core.Sampler
	var meter *core.Meter
	m["core.sampler_topup_ms"], err = medianOf(3, clock(func() error {
		meter = core.NewMeter(udf)
		sampler = core.NewSampler(groups, meter, rng.Split())
		sampler.SetParallelism(par)
		_, err := sampler.TopUpCtx(ctx, targets)
		return err
	}))
	if err != nil {
		return err
	}
	infos := sampler.Infos()
	var strategy core.Strategy
	ns, _, _ = timeIt(20, func() { strategy, err = core.PlanWithSamples(infos, in.cons, cost) })
	if err != nil {
		return err
	}
	m["core.plan_with_samples_us"] = ns / 1e3
	// Executing mutates only the meter's memo, so repetitions after the
	// first find every row known; one timed run is the honest number.
	m["core.execute_parallel_ms"], err = clock(func() error {
		_, err := core.ExecuteParallelCtx(ctx, groups, strategy, sampler.Outcomes(), meter, cost, rng.Split(), par)
		return err
	})()
	if err != nil {
		return err
	}

	all := make([]int, in.tbl.NumRows())
	for i := range all {
		all[i] = i
	}
	var labeled map[int]bool
	m["core.label_fraction_ms"], err = medianOf(3, clock(func() error {
		var err error
		labeled, err = core.LabelFractionParallelCtx(ctx, all, 0.01, core.NewMeter(udf), rng.Split(), par)
		return err
	}))
	if err != nil {
		return err
	}
	// Candidates as §4.4 scans them: every low-cardinality column but the
	// UDF's argument.
	var cands []core.Candidate
	schema := in.tbl.Schema()
	for j := 0; j < schema.Len(); j++ {
		col, ok := in.tbl.Column(j).(*table.StringColumn)
		if !ok || col.Cardinality() < 2 || col.Cardinality() > 50 {
			continue
		}
		name := schema.Col(j).Name
		groups, err := groupsBy(in.tbl, name)
		if err != nil {
			return err
		}
		cands = append(cands, core.Candidate{Name: name, Groups: groups})
	}
	m["core.select_column_ms"], err = medianOf(3, clock(func() error {
		// A column failing to qualify on 1% labels is an outcome, not a
		// probe failure: the engine answers it by labeling more.
		_, _ = core.SelectColumn(cands, labeled, in.cons, cost)
		return nil
	}))
	if err != nil {
		return err
	}

	// The gradient planner on a fixed 16-group instance.
	srng := stats.NewRNG(in.seed ^ 0x50_4c_41_4e)
	sixteen := make([]core.GroupInfo, 16)
	for i := range sixteen {
		sampled := 20 + srng.IntN(60)
		sixteen[i] = core.GroupInfoFromSample(500+srng.IntN(2000), sampled, srng.IntN(sampled+1))
	}
	m["solver.gradient_plan_ms"], err = medianOf(3, clock(func() error {
		_, err := core.PlanEstimatedGradient(sixteen, in.cons, cost, core.IndependentGroups)
		return err
	}))
	return err
}

// probeExec times the worker pool with a predicate that costs nothing, so
// what is left is dispatch, and with one that costs a fixed amount, so the
// ratio between one worker and all of them is the pool's speed-up.
func probeExec(ctx context.Context, in *probeInput, m map[string]float64) error {
	rows := make([]int, probeRows)
	for i := range rows {
		rows[i] = i
	}
	pool := exec.NewPool(runtime.GOMAXPROCS(0))
	var err error
	ns, _, _ := timeIt(20, func() {
		if _, e := pool.EvalRowsCtx(ctx, rows, func(row int) bool { return row&1 == 0 }); e != nil {
			err = e
		}
	})
	m["exec.dispatch_ns_per_row"] = ns / probeRows
	gate := resilience.NewBreaker(resilience.BreakerConfig{})
	ns, _, _ = timeIt(20, func() {
		_, _, e := pool.EvalRowsGatedCtx(ctx, rows, gate,
			func(_ context.Context, row int) (bool, bool) { return row&1 == 0, false },
			func(int) (bool, bool) { return false, true })
		if e != nil {
			err = e
		}
	})
	m["exec.gated_dispatch_ns_per_row"] = ns / probeRows
	if err != nil {
		return err
	}

	burnRowsN := rows[:2048]
	pred := func(row int) bool { return burn(uint64(row))&1 == 0 }
	timePool := func(workers int) (float64, error) {
		p := exec.NewPool(workers)
		return medianOf(3, clock(func() error {
			_, err := p.EvalRowsCtx(ctx, burnRowsN, pred)
			return err
		}))
	}
	one, err := timePool(1)
	if err != nil {
		return err
	}
	many, err := timePool(runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	m["exec.pool_speedup"] = ratio(one, many)
	return nil
}

func probeResilience(ctx context.Context, _ *probeInput, m map[string]float64) error {
	var err error
	ns, _, _ := timeIt(100000, func() {
		if _, _, e := resilience.Do(ctx, resilience.Policy{}, 42, func(context.Context) (bool, error) { return true, nil }); e != nil {
			err = e
		}
	})
	m["resilience.do_overhead_ns"] = ns
	b := resilience.NewBreaker(resilience.BreakerConfig{})
	ns, _, _ = timeIt(2000, func() { b.Plan(1024) })
	m["resilience.breaker_plan_ns"] = ns
	return err
}

// probeTable re-reads the workload's table from its own CSV rendering and
// rebuilds the group index the planner leans on.
func probeTable(_ context.Context, in *probeInput, m map[string]float64) error {
	var buf bytes.Buffer
	if err := table.WriteCSV(in.tbl, &buf); err != nil {
		return err
	}
	reps := 3
	if buf.Len() > 8<<20 {
		reps = 1 // a large table is read once: the probe must not outlast the rounds
	}
	readMS, err := medianOf(reps, clock(func() error {
		_, err := table.ReadCSV(in.tbl.Name(), bytes.NewReader(buf.Bytes()))
		return err
	}))
	if err != nil {
		return err
	}
	m["table.read_csv_ms"] = readMS
	m["table.read_csv_mb_per_s"] = ratio(float64(buf.Len())/1e6, readMS/1e3)
	m["table.group_index_ms"], err = medianOf(3, clock(func() error {
		_, err := table.BuildGroupIndex(in.tbl, in.groupCol)
		return err
	}))
	return err
}
