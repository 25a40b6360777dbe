// Package predeval is the public face of the library: an embeddable
// approximate-query engine for selection queries with expensive UDF
// predicates, implementing "Exploiting Correlations for Expensive
// Predicate Evaluation" (Joglekar, Garcia-Molina, Parameswaran, Ré).
//
// Load a table, register the expensive predicate, and query with accuracy
// bounds:
//
//	db := predeval.Open(42)
//	db.LoadCSV("loans", csvReader)
//	db.RegisterUDF("good_credit", func(v any) bool { return creditCheck(v) }, 3.0)
//	res, err := db.QueryContext(ctx, `SELECT * FROM loans WHERE good_credit(id) = 1
//	                                 WITH PRECISION 0.9 RECALL 0.9 PROBABILITY 0.9`)
//
// The engine estimates how each column correlates with the UDF, samples a
// few tuples to learn per-group selectivities, and then skips or
// trusts whole groups of tuples so the result meets the requested
// precision and recall with the requested probability — at a fraction of
// the UDF invocations an exact evaluation would need. Omit the WITH
// clause to run exactly. See DESIGN.md for the algorithm map and
// EXPERIMENTS.md for the reproduction results.
//
// A WHERE clause ANDs one or more UDF predicates, udf(col) = 0 or 1, with
// any number of cheap equality filters, which run first and are answered
// from a posting index the table builds on first use. One predicate is
// the paper's selection; two under a WITH clause are its Section 5
// conjunction; more are evaluated in short-circuit waves. Costs are the
// paper's: o_r = 1 per retrieved tuple and o_e = 3 per UDF call, unless
// RegisterUDF gives the UDF its own o_e. A UDF that can fail instead of
// answering registers through RegisterUDFErr.
//
// UDF invocations — the dominant cost — fan out across a worker pool
// (SetParallelism; default runtime.GOMAXPROCS(0)). Execution is split into
// a sequential plan phase that draws all random coins and a parallel
// evaluate phase, so for a given seed the results are bit-for-bit
// identical at every parallelism level; SetParallelism(1) reproduces fully
// sequential execution. When parallelism exceeds 1, registered UDF bodies
// must be safe for concurrent invocation. Outcomes are also memoized per
// (table, UDF, column) across queries, so production traffic repeating
// predicates over the same rows never re-pays the evaluation cost; see
// DESIGN.md for the determinism contract and cache semantics.
//
// The context carries per-query deadlines and cancellation: workers check
// it between UDF calls, so a cancel returns ctx.Err() within one in-flight
// call per worker and the database stays reusable. cmd/predsqld serves the
// engine over HTTP with per-request timeouts built on it.
package predeval

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/resilience"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// DB is an in-memory database of tables and registered UDFs.
type DB struct {
	eng *engine.Engine
}

// Open creates an empty database. The seed makes sampling and
// probabilistic execution reproducible.
func Open(seed uint64) *DB {
	return &DB{eng: engine.New(seed)}
}

// SetParallelism caps the number of workers UDF evaluation fans out
// across. n = 1 runs fully sequentially; n ≤ 0 resets to
// runtime.GOMAXPROCS(0), the default. Results for a given seed are
// identical at every setting. Values above GOMAXPROCS are honored — for
// I/O-bound UDFs (remote scoring services, disk) oversubscription is
// usually the right call. UDF bodies must tolerate concurrent invocation
// when n > 1.
//
// Like SetUDFCache, configure before serving queries:
// calling it concurrently with in-flight queries is a data race.
func (db *DB) SetParallelism(n int) {
	db.eng.Parallelism = n
}

// SetBatchSize sets the number of rows per execution batch (n ≤ 0 resets
// to the engine default of 1024). Batch size is a performance knob, not a
// semantic one: for a given seed, results and Stats are bit-for-bit
// identical at every setting (the sole exception is workloads whose
// circuit breakers trip mid-query — trip timing follows batch
// boundaries). Smaller batches lower streamed first-row latency; larger
// batches amortize per-batch overhead. Configure before serving queries
// (see SetParallelism).
func (db *DB) SetBatchSize(n int) {
	db.eng.BatchSize = n
}

// SetUDFCache toggles the cross-query UDF outcome cache (on by default):
// when enabled, a row evaluated by one query is never re-paid by a later
// query over the same (table, UDF, column) — the "= 0/1" comparison is
// folded at lookup, so complementary queries share too. Disabling also
// drops any cached outcomes. Configure before serving queries (see
// SetParallelism).
func (db *DB) SetUDFCache(enabled bool) {
	db.eng.CacheUDFResults = enabled
	if !enabled {
		db.eng.InvalidateUDFCache()
	}
}

// OpenCatalog attaches a durable statistics & outcome catalog stored in
// dir (created if needed): UDF verdicts and learned correlated-column
// choices persist across process restarts, so repeated
// workloads warm-start instead of re-paying the UDF cost. Call after
// registering tables and UDFs, before serving queries. New facts become
// durable on FlushCatalog (or a server's periodic flush) — see DESIGN.md,
// "Durable catalog".
//
// A catalog left behind by a crash is recovered on open: a damaged log
// tail is detected by checksum and cut off (losing at most the facts
// since the last flush), never replayed into wrong verdicts. Inspect
// Catalog().Recovery() to see what was repaired.
func (db *DB) OpenCatalog(dir string) error {
	c, err := catalog.Open(dir)
	if err != nil {
		return err
	}
	db.eng.SetCatalog(c)
	return nil
}

// Catalog returns the attached catalog, or nil.
func (db *DB) Catalog() *catalog.Catalog { return db.eng.Catalog() }

// FlushCatalog persists every outcome and statistic learned since the
// last flush. No-op without an attached catalog.
func (db *DB) FlushCatalog() error { return db.eng.FlushCatalog() }

// CloseCatalog flushes, compacts and closes the attached catalog, then
// detaches it. The DB remains usable (without durability). No-op without
// an attached catalog.
func (db *DB) CloseCatalog() error { return db.eng.CloseCatalog() }

// CacheCounters aggregates cross-query cache and catalog warm-start
// activity over the DB's lifetime.
type CacheCounters struct {
	// Hits / Misses count cross-query outcome-cache lookups summed over
	// completed queries (a hit serves a row without invoking the UDF).
	Hits   int64
	Misses int64
	// ColumnMemoHits counts queries that skipped the correlated-column
	// discovery pass thanks to a catalog memo.
	ColumnMemoHits int64
	// SeededRows reads 0. It counted sampler rows seeded from persisted
	// sampling evidence, which the catalog no longer keeps: every statement
	// draws its own sample. It stays so existing readers compile.
	SeededRows int64
}

// CacheCounters reports DB-lifetime cache and warm-start counters.
func (db *DB) CacheCounters() CacheCounters {
	hits, misses := db.eng.CacheCounters()
	cc := db.eng.CatalogCounters()
	return CacheCounters{
		Hits:           hits,
		Misses:         misses,
		ColumnMemoHits: cc.ColumnMemoHits,
	}
}

// LoadCSV reads a CSV (header row required, column types inferred) into a
// new table.
func (db *DB) LoadCSV(name string, r io.Reader) error {
	tbl, err := table.ReadCSV(name, r)
	if err != nil {
		return err
	}
	return db.eng.RegisterTable(tbl)
}

// LoadCSVFile is LoadCSV reading from a file path.
func (db *DB) LoadCSVFile(name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("predeval: %w", err)
	}
	defer f.Close()
	return db.LoadCSV(name, f)
}

// RegisterUDF registers an expensive boolean predicate over a single
// column value. cost is the per-invocation cost o_e (0 uses the engine
// default of 3).
func (db *DB) RegisterUDF(name string, fn func(value any) bool, cost float64) error {
	if fn == nil {
		return fmt.Errorf("predeval: nil UDF %q", name)
	}
	return db.eng.RegisterUDF(engine.UDF{
		Name: name,
		Body: func(_ context.Context, v table.Value) (bool, error) { return fn(v), nil },
		Cost: cost,
	})
}

// RegisterUDFErr registers a fallible expensive predicate: one that may
// return an error (remote service failure, timeout) instead of panicking.
// Invocations run under the DB's retry policy (SetRetryPolicy) behind a
// per-(table, UDF) circuit breaker; what a row whose invocation ultimately
// fails means is decided by the DB's failure policy (SetFailurePolicy).
// Plain returned errors are treated as transient and retried; wrap them in
// *resilience.Error to control classification. The context carries the
// per-call deadline — bodies that honor it return promptly on
// cancellation.
func (db *DB) RegisterUDFErr(name string, fn func(ctx context.Context, value any) (bool, error), cost float64) error {
	if fn == nil {
		return fmt.Errorf("predeval: nil UDF %q", name)
	}
	return db.eng.RegisterUDF(engine.UDF{
		Name: name,
		Body: func(ctx context.Context, v table.Value) (bool, error) { return fn(ctx, v) },
		Cost: cost,
	})
}

// SetRetryPolicy tunes retry/backoff and the per-call deadline for UDF
// invocations (the zero value means 3 attempts, 1ms..50ms capped
// exponential backoff, no deadline). Backoff jitter is a pure hash seeded
// from the DB seed, so retry schedules are deterministic. Configure before
// serving queries (see SetParallelism).
func (db *DB) SetRetryPolicy(p resilience.Policy) { db.eng.Retry = p }

// SetFailurePolicy sets the failure policy of every statement: "fail"
// (default — a failed row fails the statement once execution finishes) or
// "degrade" (failed rows are excluded, and a result that lost any is
// marked Degraded). Configure before serving queries.
func (db *DB) SetFailurePolicy(policy string) error {
	p, err := plan.ParseFailurePolicy(policy)
	if err != nil {
		return err
	}
	db.eng.OnFailure = p
	return nil
}

// BreakerStatus is one circuit breaker's observable state.
type BreakerStatus = engine.BreakerStatus

// BreakerStatuses reports every circuit breaker the DB has created, in
// (table, UDF) order.
func (db *DB) BreakerStatuses() []BreakerStatus { return db.eng.BreakerStatuses() }

// Stats summarizes how a query spent its cost budget (evaluations,
// retrievals, cost, sampling, cache traffic, failures — see the field
// documentation on engine.Stats).
type Stats = engine.Stats

// Rows is a query result. Its cells are rendered when Row asks for them.
type Rows struct {
	cols  []string
	n     int
	row   func(i int) []string // renders result row i
	ids   []int
	stats Stats
	plan  []string
}

// Columns returns the projected column names.
func (r *Rows) Columns() []string { return r.cols }

// Len returns the number of result rows.
func (r *Rows) Len() int { return r.n }

// Row renders the cells of result row i. Each call renders afresh, from
// the same registered table, so repeated calls return equal cells.
func (r *Rows) Row(i int) []string { return r.row(i) }

// RowIDs returns the base-table row ids of the result (useful for joining
// results back to ground truth in evaluations).
func (r *Rows) RowIDs() []int { return r.ids }

// Stats returns the execution statistics.
func (r *Rows) Stats() Stats { return r.stats }

// Plan returns the statement's operator chain, one operator per line: the
// estimated chain for EXPLAIN, the chain annotated with measured
// per-operator counts for EXPLAIN ANALYZE. Nil for a statement without
// the keyword. The plan is metadata of the run; the result set is the
// statement's own (none for EXPLAIN, which does not execute).
func (r *Rows) Plan() []string { return r.plan }

// QueryContext parses and executes one statement of the SQL dialect (see
// the package documentation and internal/sqlparse) and returns the
// materialized result. An EXPLAIN-prefixed statement is planned instead of
// executed: the result has the projection's columns, zero rows, zero-valued
// Stats and the estimated chain on Plan. An EXPLAIN ANALYZE statement
// executes and returns exactly what the bare statement would, with the
// annotated chain on Plan.
//
// Cancel ctx (or attach a deadline) and the engine stops evaluating UDFs
// promptly — within at most one in-flight UDF call per worker — returning
// ctx.Err(). A cancelled query leaves the database fully reusable, and
// every UDF outcome computed before the cancel stays in the cross-query
// cache, so re-running the query resumes from paid-for work. See
// DESIGN.md, "Cancellation contract".
func (db *DB) QueryContext(ctx context.Context, sql string) (*Rows, error) {
	stmt, err := parseStatement(ctx, sql)
	if err != nil {
		return nil, err
	}
	q := stmt.Query
	res := &engine.Result{Rows: []int{}} // EXPLAIN's: no rows, zero Stats
	var chain plan.Chain
	switch {
	case stmt.Analyze:
		chain, res, err = db.eng.ExplainAnalyzeContext(ctx, q)
	case stmt.Explain:
		chain, err = db.eng.Plan(q)
	default:
		res, err = db.eng.ExecuteContext(ctx, q)
	}
	if err != nil {
		return nil, err
	}
	var rows *Rows
	obs.Timed(ctx, "materialize", func() { rows, err = db.materialize(q, res, chain) })
	return rows, err
}

// parseStatement parses sql under the "parse" span.
func parseStatement(ctx context.Context, sql string) (*sqlparse.Statement, error) {
	var stmt *sqlparse.Statement
	var err error
	obs.Timed(ctx, "parse", func() { stmt, err = sqlparse.Parse(sql) })
	return stmt, err
}

// materialize wraps the result rows with the Renderer QueryStream emits
// through, so a streamed and a materialized result cannot render
// differently, and formats the plan chain (nil without EXPLAIN) into Plan's
// lines. Row renders on demand: a caller reading only RowIDs or Len pays
// for no cell.
func (db *DB) materialize(q plan.Query, res *engine.Result, chain plan.Chain) (*Rows, error) {
	cols, render, err := db.eng.Renderer(q)
	if err != nil {
		return nil, err
	}
	var lines []string
	if chain != nil {
		lines = strings.Split(strings.TrimRight(plan.Format(chain), "\n"), "\n")
	}
	ids := res.Rows
	return &Rows{cols: cols, n: len(ids), row: func(i int) []string { return render(ids[i]) },
		ids: ids, stats: res.Stats, plan: lines}, nil
}

// ErrStopStream can be returned by a QueryStream emit callback to stop
// the stream early: production halts (upstream evaluation is cancelled),
// and QueryStream returns successfully with the rows delivered so far.
var ErrStopStream = engine.ErrStopStream

// StreamOptions carries per-stream execution options.
type StreamOptions struct {
	// Limit, when > 0, stops the stream after that many rows: production
	// is cancelled upstream (unevaluated rows are never paid for), the
	// result is marked Truncated, and Stats cover only the work performed.
	Limit int
}

// StreamResult summarizes a completed (or early-stopped) stream.
type StreamResult struct {
	// Columns holds the projected column names (also passed to every emit
	// call's cells implicitly — cells[i] is the value of Columns[i]).
	Columns []string
	// Stats covers the evaluation actually performed. After an early stop
	// (Limit reached or emit returned ErrStopStream) they reflect only the
	// batches pulled before the stop.
	Stats Stats
	// RowCount is the number of rows delivered to emit.
	RowCount int
	// Truncated reports that Limit stopped the stream before exhaustion.
	Truncated bool
}

// QueryStream executes a statement and delivers result rows incrementally:
// emit is called with each deterministic batch's base-table row ids and
// rendered cells as execution produces them, instead of materializing the
// full result. For streaming plan shapes (exact selections and conjunction
// waves) the first batch arrives while later rows are still unevaluated;
// blocking shapes (sampling pipelines, the §5 two-predicate plan, joins)
// finish evaluating first and then stream the finished result out in
// batches. Rows arrive in base-table order, rendered identically to
// QueryContext's materialized cells. emit returning ErrStopStream stops the
// stream early (successfully); any other error aborts the query with that
// error. EXPLAIN / EXPLAIN ANALYZE statements are not streamable.
//
// The determinism contract is unchanged: for a given seed, the
// concatenation of all emitted batches — and the final Stats — are
// bit-for-bit identical at every parallelism level and batch size (see
// SetBatchSize for the circuit-breaker caveat).
func (db *DB) QueryStream(ctx context.Context, sql string, opts StreamOptions, emit func(ids []int, cells [][]string) error) (*StreamResult, error) {
	if emit == nil {
		return nil, fmt.Errorf("predeval: QueryStream requires an emit callback")
	}
	stmt, err := parseStatement(ctx, sql)
	if err != nil {
		return nil, err
	}
	if stmt.Explain || stmt.Analyze {
		return nil, fmt.Errorf("predeval: EXPLAIN statements cannot be streamed")
	}
	if opts.Limit < 0 {
		return nil, fmt.Errorf("predeval: negative stream limit %d", opts.Limit)
	}
	cols, render, err := db.eng.Renderer(stmt.Query)
	if err != nil {
		return nil, err
	}
	res := &StreamResult{Columns: cols}
	sink := func(rows []int) error {
		if opts.Limit > 0 && res.RowCount+len(rows) >= opts.Limit {
			rows = rows[:opts.Limit-res.RowCount]
			res.Truncated = true
		}
		if len(rows) > 0 {
			cells := make([][]string, len(rows))
			for i, row := range rows {
				cells[i] = render(row)
			}
			err := emit(rows, cells)
			res.RowCount += len(rows)
			if err != nil {
				return err
			}
		}
		if res.Truncated {
			return ErrStopStream
		}
		return nil
	}
	res.Stats, err = db.eng.ExecuteStreamContext(ctx, stmt.Query, sink)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// TableNames lists the registered tables in sorted order.
func (db *DB) TableNames() []string { return db.eng.TableNames() }

// ColumnInfo describes one column of a registered table.
type ColumnInfo struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// TableInfo describes a registered table: its name, row count and schema.
// The JSON tags are predsqld's GET /tables entry.
type TableInfo struct {
	Name    string       `json:"name"`
	Rows    int          `json:"rows"`
	Columns []ColumnInfo `json:"columns"`
}

// TableInfo reports the schema and row count of a registered table.
func (db *DB) TableInfo(name string) (TableInfo, error) {
	tbl, err := db.eng.Table(name)
	if err != nil {
		return TableInfo{}, err
	}
	info := TableInfo{Name: name, Rows: tbl.NumRows()}
	schema := tbl.Schema()
	for i := 0; i < schema.Len(); i++ {
		def := schema.Col(i)
		info.Columns = append(info.Columns, ColumnInfo{Name: def.Name, Type: def.Type.String()})
	}
	return info, nil
}

// Engine exposes the underlying engine for advanced, non-SQL use. Its
// callers are cmd/predsqld, whose /metrics batch gauges read the engine's
// batch counters, and cmd/predbench, which registers generated tables
// directly and times engine statements against its probes. Budget queries
// need no engine access: they are SQL's BUDGET clause.
func (db *DB) Engine() *engine.Engine { return db.eng }
