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

// SetCosts overrides the per-tuple retrieval cost o_r and the default UDF
// evaluation cost o_e (individual UDFs can override o_e at registration).
func (db *DB) SetCosts(retrieve, evaluate float64) error {
	if retrieve < 0 || evaluate < 0 {
		return fmt.Errorf("predeval: negative cost")
	}
	db.eng.Cost.Retrieve = retrieve
	db.eng.Cost.Evaluate = evaluate
	return nil
}

// SetParallelism caps the number of workers UDF evaluation fans out
// across. n = 1 runs fully sequentially; n ≤ 0 resets to
// runtime.GOMAXPROCS(0), the default. Results for a given seed are
// identical at every setting. Values above GOMAXPROCS are honored — for
// I/O-bound UDFs (remote scoring services, disk) oversubscription is
// usually the right call. UDF bodies must tolerate concurrent invocation
// when n > 1.
//
// Like SetCosts and SetUDFCache, configure before serving queries:
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
// dir (created if needed): UDF verdicts, sampling evidence and learned
// correlated-column choices persist across process restarts, so repeated
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

// SetCatalog attaches an already-open catalog (nil detaches). Configure
// before serving queries, like SetParallelism.
func (db *DB) SetCatalog(c *catalog.Catalog) { db.eng.SetCatalog(c) }

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
	// SeededRows counts sampler rows warm-started from persisted evidence.
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
		SeededRows:     cc.SeededRows,
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
		Body: func(v table.Value) bool { return fn(v) },
		Cost: cost,
	})
}

// RegisterUDFErr registers a fallible expensive predicate: one that may
// return an error (remote service failure, timeout) instead of panicking.
// Invocations run under the DB's retry policy (SetRetryPolicy) behind a
// per-(table, UDF) circuit breaker; what a row whose invocation ultimately
// fails means is decided by the failure policy (SetFailurePolicy, or
// per-query options). Plain returned errors are treated as transient and
// retried; wrap them in *resilience.Error to control classification. The
// context carries the per-call deadline — bodies that honor it return
// promptly on cancellation.
func (db *DB) RegisterUDFErr(name string, fn func(ctx context.Context, value any) (bool, error), cost float64) error {
	if fn == nil {
		return fmt.Errorf("predeval: nil UDF %q", name)
	}
	return db.eng.RegisterUDF(engine.UDF{
		Name:    name,
		BodyErr: func(ctx context.Context, v table.Value) (bool, error) { return fn(ctx, v) },
		Cost:    cost,
	})
}

// SetRetryPolicy tunes retry/backoff and the per-call deadline for UDF
// invocations (the zero value means 3 attempts, 1ms..50ms capped
// exponential backoff, no deadline). Backoff jitter is a pure hash seeded
// from the DB seed, so retry schedules are deterministic. Configure before
// serving queries (see SetParallelism).
func (db *DB) SetRetryPolicy(p resilience.Policy) { db.eng.Retry = p }

// SetFailurePolicy sets the default failure policy for queries that do not
// carry their own: "fail" (default — a failed row fails the query once
// execution finishes), "skip" (failed rows are silently excluded) or
// "degrade" (excluded and the result is marked Degraded). Configure before
// serving queries.
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

// Rows is a materialized query result.
type Rows struct {
	cols  []string
	cells [][]string
	ids   []int
	stats Stats
	plan  []string
}

// Columns returns the projected column names.
func (r *Rows) Columns() []string { return r.cols }

// Len returns the number of result rows.
func (r *Rows) Len() int { return len(r.cells) }

// Row returns the rendered cells of result row i.
func (r *Rows) Row(i int) []string { return r.cells[i] }

// RowIDs returns the base-table row ids of the result (useful for joining
// results back to ground truth in evaluations).
func (r *Rows) RowIDs() []int { return r.ids }

// Stats returns the execution statistics.
func (r *Rows) Stats() Stats { return r.stats }

// Plan returns the annotated EXPLAIN ANALYZE plan (one operator per
// line), when the query ran with analysis on — via the EXPLAIN ANALYZE
// keyword or QueryOptions.Analyze. Nil otherwise.
func (r *Rows) Plan() []string { return r.plan }

// ExplainContext parses a statement and returns its physical operator tree
// as EXPLAIN text (one operator per line, with estimated costs and the
// chosen correlated column where known) without executing anything. The
// EXPLAIN keyword is optional — "SELECT ..." and "EXPLAIN SELECT ..."
// render the same plan. An EXPLAIN ANALYZE statement is the exception: it
// EXECUTES the query under ctx (UDFs run, caches fill) and returns the plan
// annotated with measured per-operator counts.
func (db *DB) ExplainContext(ctx context.Context, sql string) (string, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	if stmt.Analyze {
		root, _, err := db.eng.ExplainAnalyzeContext(ctx, stmt.Query)
		if err != nil {
			return "", err
		}
		return plan.Format(root), nil
	}
	return db.eng.Explain(stmt.Query)
}

// QueryContext parses and executes one statement of the SQL dialect (see
// the package documentation and internal/sqlparse) and returns the
// materialized result. An EXPLAIN-prefixed statement is planned instead of
// executed: the result has a single "plan" column with one row per
// operator line and zero-valued Stats.
//
// Cancel ctx (or attach a deadline) and the engine stops evaluating UDFs
// promptly — within at most one in-flight UDF call per worker — returning
// ctx.Err(). A cancelled query leaves the database fully reusable, and
// every UDF outcome computed before the cancel stays in the cross-query
// cache, so re-running the query resumes from paid-for work. See
// DESIGN.md, "Cancellation contract".
func (db *DB) QueryContext(ctx context.Context, sql string) (*Rows, error) {
	return db.QueryContextOptions(ctx, sql, QueryOptions{})
}

// QueryOptions carries per-query execution options that have no SQL
// surface.
type QueryOptions struct {
	// OnFailure overrides the DB's failure policy for this query: "fail",
	// "skip" or "degrade" ("" keeps the DB default). See SetFailurePolicy.
	OnFailure string
	// Analyze turns on EXPLAIN ANALYZE instrumentation without changing
	// what the query returns: the result rows come back as usual, and the
	// annotated plan is available from Rows.Plan(). (An EXPLAIN ANALYZE
	// statement instead returns the plan as the result set, like EXPLAIN.)
	Analyze bool
}

// parseStatement parses sql under the "parse" span and applies the
// per-query failure-policy override ("" keeps the DB default).
func parseStatement(ctx context.Context, sql, onFailure string) (*sqlparse.Statement, error) {
	var stmt *sqlparse.Statement
	var err error
	obs.Timed(ctx, "parse", func() { stmt, err = sqlparse.Parse(sql) })
	if err != nil {
		return nil, err
	}
	if onFailure != "" {
		stmt.Query.OnFailure, err = plan.ParseFailurePolicy(onFailure)
		if err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

// QueryContextOptions is QueryContext with per-query options.
func (db *DB) QueryContextOptions(ctx context.Context, sql string, opts QueryOptions) (*Rows, error) {
	stmt, err := parseStatement(ctx, sql, opts.OnFailure)
	if err != nil {
		return nil, err
	}
	q := stmt.Query
	if stmt.Explain && !stmt.Analyze {
		text, err := db.eng.Explain(q)
		if err != nil {
			return nil, err
		}
		return planRows(planLines(text)), nil
	}
	var res *engine.Result
	var annotated []string
	if stmt.Analyze || opts.Analyze {
		var root *plan.Node
		if root, res, err = db.eng.ExplainAnalyzeContext(ctx, q); err == nil {
			annotated = planLines(plan.Format(root))
		}
	} else {
		res, err = db.eng.ExecuteContext(ctx, q)
	}
	if err != nil {
		return nil, err
	}
	if stmt.Analyze {
		// EXPLAIN ANALYZE returns the annotated plan as the result set
		// (like EXPLAIN — and like Postgres, the query's own output is
		// discarded); Stats still reflect the real execution.
		rows := planRows(annotated)
		rows.stats, rows.plan = res.Stats, annotated
		return rows, nil
	}
	var rows *Rows
	obs.Timed(ctx, "materialize", func() { rows, err = db.materialize(q, res, annotated) })
	return rows, err
}

// materialize renders every result row's cells. They come from the same
// Renderer QueryStream emits through, so a streamed and a materialized
// result cannot render differently.
func (db *DB) materialize(q plan.Query, res *engine.Result, annotated []string) (*Rows, error) {
	cols, render, err := db.eng.Renderer(q)
	if err != nil {
		return nil, err
	}
	cells := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		cells[i] = render(row)
	}
	return &Rows{cols: cols, cells: cells, ids: res.Rows, stats: res.Stats, plan: annotated}, nil
}

// planLines splits EXPLAIN text into its operator lines.
func planLines(text string) []string {
	return strings.Split(strings.TrimRight(text, "\n"), "\n")
}

// planRows wraps EXPLAIN lines as a one-column result set (one row per
// operator line), so EXPLAIN statements flow through QueryContext like any
// other.
func planRows(lines []string) *Rows {
	r := &Rows{cols: []string{"plan"}}
	for _, line := range lines {
		r.cells = append(r.cells, []string{line})
	}
	return r
}

// ErrStopStream can be returned by a QueryStream emit callback to stop
// the stream early: production halts (upstream evaluation is cancelled),
// and QueryStream returns successfully with the rows delivered so far.
var ErrStopStream = engine.ErrStopStream

// StreamOptions carries per-stream execution options.
type StreamOptions struct {
	// OnFailure overrides the DB's failure policy for this query: "fail",
	// "skip" or "degrade" ("" keeps the DB default). See SetFailurePolicy.
	OnFailure string
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
	stmt, err := parseStatement(ctx, sql, opts.OnFailure)
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

// NumRows reports the row count of a registered table... exposed for
// tooling.
func (db *DB) NumRows(tableName string) (int, error) {
	tbl, err := db.eng.Table(tableName)
	if err != nil {
		return 0, err
	}
	return tbl.NumRows(), nil
}

// Engine exposes the underlying engine for advanced, non-SQL use (the
// examples use it to pin columns and run budget queries directly).
func (db *DB) Engine() *engine.Engine { return db.eng }
