package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	predeval "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/table"
)

// Op counts are sized for rounds of about a second on the 2-core reference
// host: half the counts the issue sketched, because a run has to fit its
// set-up (three times over), a warm-up round and the measured rounds into
// the driver's budget.
const (
	opsExactScan      = 30
	opsApproxGrouped  = 9
	opsApproxDiscover = 10
	opsFilteredScan   = 15
	opsConjunction    = 11
	opsExpensiveUDF   = 10
	opsCatalogRestart = 10
	opsServeHTTP      = 10 // per connection
)

func newWorkload(name string) (workload, error) {
	switch name {
	case "exact_scan":
		return &exactScan{}, nil
	case "approx_grouped":
		return &approxGrouped{}, nil
	case "approx_discover":
		return &approxDiscover{}, nil
	case "filtered_scan":
		return &filteredScan{}, nil
	case "conjunction":
		return &conjunction{}, nil
	case "expensive_udf":
		return &expensiveUDF{}, nil
	case "catalog_restart":
		return &catalogRestart{}, nil
	case "serve_http":
		return &serveHTTP{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// udfDef is a predicate as a workload registers it.
type udfDef struct {
	name string
	fn   func(v any) bool
}

// labelUDF is the instant UDF: it reveals the hidden label of the row
// whose id it is handed.
func labelUDF(labels []bool) func(any) bool {
	return func(v any) bool { return labels[v.(int64)] }
}

// openDB builds a database over already-parsed tables. Every round opens a
// fresh one at the same seed, which is what makes rounds replicas.
func openDB(seed uint64, cache bool, tbls []*table.Table, udfs []udfDef) (*predeval.DB, error) {
	db := predeval.Open(seed)
	db.SetUDFCache(cache)
	for _, t := range tbls {
		if err := db.Engine().RegisterTable(t); err != nil {
			return nil, err
		}
	}
	for _, u := range udfs {
		if err := db.RegisterUDF(u.name, u.fn, 0); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// coldCost is the evaluate-everything baseline: the statements run once on
// a cold database with the cross-query cache off.
func coldCost(ctx context.Context, seed uint64, tbls []*table.Table, udfs []udfDef, sqls ...string) (float64, error) {
	db, err := openDB(seed, false, tbls, udfs)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, sql := range sqls {
		rows, err := db.QueryContext(ctx, sql)
		if err != nil {
			return 0, fmt.Errorf("baseline %q: %w", sql, err)
		}
		total += rows.Stats().Cost
	}
	return total, nil
}

func generate(e *env, spec dataset.Spec) (*dataset.Dataset, error) {
	if e.scale < 1 {
		spec = spec.Scaled(e.scale)
	}
	return dataset.Generate(spec, e.seed)
}

func withClause(a, b, r float64, groupOn string) string {
	s := fmt.Sprintf(" WITH PRECISION %g RECALL %g PROBABILITY %g", a, b, r)
	if groupOn != "" {
		s += " GROUP ON " + groupOn
	}
	return s
}

// inproc is what every in-process workload shares: one closed-loop caller
// of an embedded engine, rounds that replay, nothing to check per round.
type inproc struct {
	e        *env
	ops      int
	baseline float64
	contract core.Constraints
}

func (b *inproc) shape() (int, int)                 { return 1, b.ops }
func (b *inproc) endRound(context.Context) []string { return nil }
func (b *inproc) baselineCost() float64             { return b.baseline }
func (b *inproc) replays() bool                     { return true }
func (b *inproc) rho() float64                      { return b.contract.Rho }
func (b *inproc) close() closeReport                { return closeReport{} }

// oneTable is an in-process workload over one generated dataset.
type oneTable struct {
	inproc
	d     *dataset.Dataset
	udfs  []udfDef
	cache bool
	db    *predeval.DB
	// base is the first statement without its WITH clause; with is that
	// clause ("" for an exact statement).
	base, with string
}

func (w *oneTable) load(e *env, spec dataset.Spec, ops int, cons core.Constraints) error {
	d, err := generate(e, spec)
	if err != nil {
		return err
	}
	w.e, w.d, w.ops, w.contract = e, d, e.scaled(ops, 2), cons
	if w.udfs == nil {
		w.udfs = []udfDef{{"f", labelUDF(d.Labels)}}
	}
	return nil
}

func (w *oneTable) tables() []*table.Table { return []*table.Table{w.d.Table} }

func (w *oneTable) beginRound(context.Context) error {
	db, err := openDB(w.e.seed, w.cache, w.tables(), w.udfs)
	w.db = db
	return err
}

func (w *oneTable) probe() *probeInput {
	return &probeInput{
		seed: w.e.seed, tbl: w.d.Table, truth: w.d.Labels, udfs: w.udfs, cache: w.cache,
		sql: w.base + w.with, groupCol: w.d.Spec.Predictor, cons: w.contract,
	}
}

// defaultContract is what probes plan under on workloads whose own
// statements are exact.
var defaultContract = core.Constraints{Alpha: 0.9, Beta: 0.9, Rho: 0.9}

// ---------------------------------------------------------------- exact_scan

type exactScan struct{ oneTable }

func (w *exactScan) setup(ctx context.Context, e *env) error {
	if err := w.load(e, dataset.Census, opsExactScan, defaultContract); err != nil {
		return err
	}
	w.base = "SELECT id FROM census WHERE f(id) = 1"
	var err error
	w.baseline, err = coldCost(ctx, e.seed, w.tables(), w.udfs, w.base)
	return err
}

func (w *exactScan) op(ctx context.Context, _, _ int, rec *opRec) (st opStats) {
	if rows := st.query(ctx, rec, w.db, w.base, w.d.Table.NumRows(), 1); rows != nil {
		st.exact(rows.RowIDs(), w.d.Truth(), w.d.TotalCorrect())
	}
	return st
}

// ------------------------------------------------------------ approx_grouped

// approxGrouped sweeps the four paper datasets, one database each; a sweep
// is one op, so the latency distribution has one mode, not four.
type approxGrouped struct {
	inproc
	sets []*oneTable
}

func (w *approxGrouped) setup(ctx context.Context, e *env) error {
	w.e, w.ops, w.contract = e, e.scaled(opsApproxGrouped, 2), defaultContract
	for _, spec := range dataset.All() {
		t := &oneTable{}
		if err := t.load(e, spec, 0, w.contract); err != nil {
			return err
		}
		t.base = "SELECT id FROM " + spec.Name + " WHERE f(id) = 1"
		t.with = withClause(0.9, 0.9, 0.9, spec.Predictor)
		cost, err := coldCost(ctx, e.seed, t.tables(), t.udfs, t.base)
		if err != nil {
			return err
		}
		w.baseline += cost
		w.sets = append(w.sets, t)
	}
	return nil
}

func (w *approxGrouped) beginRound(ctx context.Context) error {
	for _, t := range w.sets {
		if err := t.beginRound(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (w *approxGrouped) op(ctx context.Context, _, _ int, rec *opRec) (st opStats) {
	for _, t := range w.sets {
		if rows := st.query(ctx, rec, t.db, t.base+t.with, t.d.Table.NumRows(), 1); rows != nil {
			st.approximate(rows.RowIDs(), t.d.Truth(), t.d.TotalCorrect(), w.contract)
		}
	}
	return st
}

func (w *approxGrouped) probe() *probeInput { return w.sets[0].probe() }

// ----------------------------------------------------------- approx_discover

type approxDiscover struct{ oneTable }

func (w *approxDiscover) setup(ctx context.Context, e *env) error {
	if err := w.load(e, dataset.Census.Scaled(0.4), opsApproxDiscover, defaultContract); err != nil {
		return err
	}
	w.base = "SELECT id FROM census WHERE f(id) = 1"
	w.with = withClause(0.9, 0.9, 0.9, "")
	var err error
	w.baseline, err = coldCost(ctx, e.seed, w.tables(), w.udfs, w.base)
	return err
}

func (w *approxDiscover) op(ctx context.Context, _, _ int, rec *opRec) (st opStats) {
	if rows := st.query(ctx, rec, w.db, w.base+w.with, w.d.Table.NumRows(), 1); rows != nil {
		st.approximate(rows.RowIDs(), w.d.Truth(), w.d.TotalCorrect(), w.contract)
	}
	return st
}

// ------------------------------------------------------------- filtered_scan

const (
	filteredRows    = 1 << 20
	filteredRegions = 25
	filteredTiers   = 40
	// stmtsPerFilteredOp statements make one op: each keeps ~0.1% of the
	// table, so a single one would be too short to time well.
	stmtsPerFilteredOp = 10
)

// filteredScan is the one workload whose working set is far larger than a
// batch, and where the fused scan and its typed filters do the work.
type filteredScan struct {
	inproc
	tbl    *table.Table
	labels []bool
	region []uint8 // per row
	tier   []uint8
	// count[r][t] is the number of positive rows in cell (r, t).
	count [filteredRegions][filteredTiers]int
	// cells is the literal pairs of an op's statements: every op issues
	// the same ones, so op latency has one mode.
	cells [stmtsPerFilteredOp][2]int
	udfs  []udfDef
	db    *predeval.DB
}

func regionName(r int) string { return fmt.Sprintf("r%02d", r) }

func (w *filteredScan) setup(ctx context.Context, e *env) error {
	w.e, w.ops, w.contract = e, e.scaled(opsFilteredScan, 2), defaultContract
	n := e.scaled(filteredRows, 4096)
	schema, err := table.NewSchema(
		table.ColumnDef{Name: "id", Type: table.Int},
		table.ColumnDef{Name: "region", Type: table.String},
		table.ColumnDef{Name: "tier", Type: table.Int},
	)
	if err != nil {
		return err
	}
	rng := stats.NewRNG(e.seed ^ 0x66696c74)
	w.tbl = table.New("events", schema)
	w.labels, w.region, w.tier = make([]bool, n), make([]uint8, n), make([]uint8, n)
	names := make([]string, filteredRegions)
	for r := range names {
		names[r] = regionName(r)
	}
	for i := 0; i < n; i++ {
		r, t := rng.IntN(filteredRegions), rng.IntN(filteredTiers)
		w.region[i], w.tier[i], w.labels[i] = uint8(r), uint8(t), rng.Bernoulli(0.5)
		if w.labels[i] {
			w.count[r][t]++
		}
		if err := w.tbl.AppendRow(int64(i), names[r], int64(t)); err != nil {
			return err
		}
	}
	w.udfs = []udfDef{{"f", labelUDF(w.labels)}}
	// Exact statements: the baseline is the op itself, once, cold.
	var sqls []string
	for j := range w.cells {
		w.cells[j] = [2]int{rng.IntN(filteredRegions), rng.IntN(filteredTiers)}
		sqls = append(sqls, w.sql(w.cells[j]))
	}
	w.baseline, err = coldCost(ctx, e.seed, []*table.Table{w.tbl}, w.udfs, sqls...)
	return err
}

func (w *filteredScan) sql(cell [2]int) string {
	return fmt.Sprintf("SELECT id FROM events WHERE region = '%s' AND tier = %d AND f(id) = 1",
		regionName(cell[0]), cell[1])
}

func (w *filteredScan) beginRound(context.Context) error {
	db, err := openDB(w.e.seed, false, []*table.Table{w.tbl}, w.udfs)
	w.db = db
	return err
}

func (w *filteredScan) op(ctx context.Context, _, _ int, rec *opRec) (st opStats) {
	for _, cell := range w.cells {
		rows := st.query(ctx, rec, w.db, w.sql(cell), w.tbl.NumRows(), 1)
		if rows == nil {
			continue
		}
		st.exact(rows.RowIDs(), func(row int) bool {
			return w.labels[row] && int(w.region[row]) == cell[0] && int(w.tier[row]) == cell[1]
		}, w.count[cell[0]][cell[1]])
	}
	return st
}

func (w *filteredScan) probe() *probeInput {
	return &probeInput{
		seed: w.e.seed, tbl: w.tbl, truth: w.labels, udfs: w.udfs,
		sql: w.sql(w.cells[0]), groupCol: "region", cons: w.contract,
	}
}

// --------------------------------------------------------------- conjunction

// conjunction pairs the §5 two-predicate approximate plan with
// three-predicate exact waves: the sampling and evaluate layers used
// differently from every single-predicate workload.
type conjunction struct {
	oneTable
	g, h           []bool
	both, allThree int
	exactSQL       string
}

func (w *conjunction) setup(ctx context.Context, e *env) error {
	if err := w.load(e, dataset.Prosper, opsConjunction, defaultContract); err != nil {
		return err
	}
	// g and h are correlated with grade too, each in its own direction.
	grade, err := w.d.Table.StringColumn("grade")
	if err != nil {
		return err
	}
	rng := stats.NewRNG(e.seed ^ 0x636f6e6a)
	n := w.d.Table.NumRows()
	w.g, w.h = make([]bool, n), make([]bool, n)
	for i := 0; i < n; i++ {
		k := float64(grade.Code(i)) / float64(grade.Cardinality())
		w.g[i] = rng.Bernoulli(0.35 + 0.5*k)
		w.h[i] = rng.Bernoulli(0.8 - 0.4*k)
		if w.d.Labels[i] && w.g[i] {
			w.both++
			if w.h[i] {
				w.allThree++
			}
		}
	}
	w.udfs = []udfDef{{"f", labelUDF(w.d.Labels)}, {"g", labelUDF(w.g)}, {"h", labelUDF(w.h)}}
	w.base = "SELECT id FROM prosper WHERE f(id) = 1 AND g(id) = 1"
	w.with = withClause(0.9, 0.9, 0.9, "grade")
	w.exactSQL = w.base + " AND h(id) = 1"
	w.baseline, err = coldCost(ctx, e.seed, w.tables(), w.udfs, w.base, w.exactSQL)
	return err
}

func (w *conjunction) op(ctx context.Context, _, _ int, rec *opRec) (st opStats) {
	n := w.d.Table.NumRows()
	if rows := st.query(ctx, rec, w.db, w.base+w.with, n, 2); rows != nil {
		st.approximate(rows.RowIDs(), func(r int) bool { return w.d.Labels[r] && w.g[r] }, w.both, w.contract)
	}
	if rows := st.query(ctx, rec, w.db, w.exactSQL, n, 3); rows != nil {
		st.exact(rows.RowIDs(), func(r int) bool { return w.d.Labels[r] && w.g[r] && w.h[r] }, w.allThree)
	}
	return st
}

// ------------------------------------------------------------- expensive_udf

// expensiveUDF is the paper's premise: the predicate's cost dominates, so
// UDF calls are wall time and the pool's parallelism shows.
type expensiveUDF struct{ oneTable }

func (w *expensiveUDF) setup(ctx context.Context, e *env) error {
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	if err := w.load(e, dataset.Prosper, opsExpensiveUDF, cons); err != nil {
		return err
	}
	labels := w.d.Labels
	w.udfs = []udfDef{{"f", func(v any) bool {
		id := v.(int64)
		// burn never returns 0 (its state is odd-seeded xorshift), so the
		// comparison only keeps the loop from being optimised away.
		return labels[id] != (burn(uint64(id)) == 0)
	}}}
	w.base = "SELECT id FROM prosper WHERE f(id) = 1"
	w.with = withClause(0.8, 0.8, 0.8, "grade")
	// The baseline's cost is counted, not timed: an instant predicate
	// yields the same o_r·retrievals + o_e·evaluations.
	var err error
	w.baseline, err = coldCost(ctx, e.seed, w.tables(), []udfDef{{"f", labelUDF(labels)}}, w.base)
	return err
}

func (w *expensiveUDF) op(ctx context.Context, _, _ int, rec *opRec) (st opStats) {
	if rows := st.query(ctx, rec, w.db, w.base+w.with, w.d.Table.NumRows(), 1); rows != nil {
		st.approximate(rows.RowIDs(), w.d.Truth(), w.d.TotalCorrect(), w.contract)
	}
	return st
}

// ----------------------------------------------------------- catalog_restart

// catalogRestart is a process restart per op: a fresh database opens the
// durable catalog the set-up's cold pass wrote, answers from it without a
// single UDF call, and closes it again (flush, compact, fsync).
type catalogRestart struct {
	oneTable
	dir      string
	exactSQL string
	static   map[string]float64
}

func (w *catalogRestart) setup(ctx context.Context, e *env) error {
	if err := w.load(e, dataset.Census, opsCatalogRestart, defaultContract); err != nil {
		return err
	}
	w.cache = true // the catalog persists what the cross-query cache holds
	w.base = "SELECT id FROM census WHERE f(id) = 1"
	w.with = withClause(0.9, 0.9, 0.9, "")
	w.exactSQL = w.base
	w.dir = filepath.Join(e.workDir, "catalog")
	var err error
	if w.baseline, err = coldCost(ctx, e.seed, w.tables(), w.udfs, w.base, w.exactSQL); err != nil {
		return err
	}

	// The cold pass pays for every verdict once and writes the catalog.
	db, err := openDB(e.seed, true, w.tables(), w.udfs)
	if err != nil {
		return err
	}
	if err := db.OpenCatalog(w.dir); err != nil {
		return err
	}
	for _, sql := range []string{w.base + w.with, w.exactSQL} {
		if _, err := db.QueryContext(ctx, sql); err != nil {
			return err
		}
	}
	t0 := time.Now()
	if err := db.FlushCatalog(); err != nil {
		return err
	}
	w.static = map[string]float64{"catalog.flush_ms": ms(time.Since(t0))}
	verdicts := db.Catalog().Stats().OutcomeRows
	if err := db.CloseCatalog(); err != nil {
		return err
	}
	size, err := dirSize(w.dir)
	if err != nil {
		return err
	}
	w.static["catalog.snapshot_bytes"] = float64(size)
	w.static["catalog.bytes_per_verdict"] = ratio(float64(size), float64(verdicts))
	return nil
}

func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

func (w *catalogRestart) beginRound(context.Context) error { return nil }

func (w *catalogRestart) op(ctx context.Context, _, _ int, rec *opRec) (st opStats) {
	n := w.d.Table.NumRows()
	t0 := time.Now()
	db, err := openDB(w.e.seed, true, w.tables(), w.udfs)
	if err == nil {
		err = db.OpenCatalog(w.dir)
	}
	d := time.Since(t0)
	st.clocked(t0, d)
	rec.mark("catalog-open", t0, d)
	st.setLayer("catalog.open_ms", ms(d))
	if err != nil {
		st.fail("opening catalog: %v", err)
		return st
	}
	if rows := st.query(ctx, rec, db, w.base+w.with, n, 1); rows != nil {
		st.approximate(rows.RowIDs(), w.d.Truth(), w.d.TotalCorrect(), w.contract)
	}
	if rows := st.query(ctx, rec, db, w.exactSQL, n, 1); rows != nil {
		st.exact(rows.RowIDs(), w.d.Truth(), w.d.TotalCorrect())
	}
	if st.evals != 0 {
		st.fail("warm restart paid %d UDF calls; the catalog should have served them all", st.evals)
	}
	cc := db.CacheCounters()
	st.setLayer("catalog.seeded_rows_per_op", float64(cc.SeededRows))
	st.setLayer("catalog.column_memo_hits_per_op", float64(cc.ColumnMemoHits))
	t0 = time.Now()
	err = db.CloseCatalog()
	d = time.Since(t0)
	st.clocked(t0, d)
	rec.mark("catalog-close", t0, d)
	st.setLayer("catalog.close_ms", ms(d))
	if err != nil {
		st.fail("closing catalog: %v", err)
	}
	return st
}

func (w *catalogRestart) close() closeReport { return closeReport{layer: w.static} }
