package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/resilience"
	"repro/internal/stats"
	"repro/internal/table"
)

// Engine executes selection queries with expensive UDF predicates against
// registered tables, using the core optimizer for approximate execution.
type Engine struct {
	mu       sync.RWMutex
	tables   map[string]*table.Table
	registry *Registry
	// Parallelism caps the number of workers UDF evaluation fans out
	// across (labeling, sampling, execution and exact scans). Default
	// runtime.GOMAXPROCS(0); 1 runs fully sequentially;
	// ≤ 0 also means GOMAXPROCS. For a given seed, query results are
	// bit-for-bit identical at every setting — only wall clock changes.
	// Values above GOMAXPROCS are honored (useful for I/O-bound UDFs).
	// UDF bodies must tolerate concurrent invocation when Parallelism > 1.
	// Set before serving queries; changing it while Execute runs on
	// another goroutine is a data race.
	Parallelism int
	// CacheUDFResults enables the cross-query (table, UDF, column)
	// outcome cache: rows evaluated by one query are never re-paid by a
	// later one. On by default; set before serving queries. See cache.go.
	CacheUDFResults bool
	// Retry tunes per-invocation retry/backoff and the per-call deadline
	// (see resilience.Policy; the zero value means 3 attempts, 1ms..50ms
	// capped exponential backoff, no deadline). The jitter seed defaults to
	// the engine seed. Set before serving queries.
	Retry resilience.Policy
	// Breaker tunes the per-(table, UDF) circuit breakers (the zero value
	// uses the documented defaults). Set before serving queries; existing
	// breakers keep the config they were created with.
	Breaker resilience.BreakerConfig
	// OnFailure is the default failure policy for queries that do not set
	// their own ("" means FailOnError). See resilience.go.
	OnFailure FailurePolicy
	// BatchSize is the number of rows per execution batch in the
	// executor's batch loop (see batch.go); ≤ 0 means DefaultBatchSize.
	// Results are bit-identical at any setting (breaker-tripping workloads
	// excepted — fold points move with batch boundaries; see DESIGN.md).
	// Set before serving queries.
	BatchSize int

	seed       uint64
	statements atomic.Uint64 // approximate statements begun (executeStatement)

	breakerMu sync.Mutex
	breakers  map[breakerKey]*resilience.Breaker

	cacheMu    sync.Mutex
	evalCaches map[evalCacheKey]*core.SharedEvalCache
	// catalog, when non-nil, persists eval-cache outcomes and column
	// choices across restarts (see catalog.go); no sampling evidence is
	// kept, so every statement draws its own sample. Guarded by cacheMu;
	// attach before serving queries.
	catalog *catalog.Catalog

	// flushedLens remembers each eval cache's size at its last catalog
	// flush; outcomes only accumulate (invalidation drops whole caches),
	// so an unchanged size means nothing new to persist and FlushCatalog
	// skips the snapshot+diff for that key. Guarded by cacheMu.
	flushedLens map[evalCacheKey]int
	// invalidations counts UDF invalidation events. Queries capture it
	// before evaluating and refuse to persist learnings if it moved: a
	// body replaced mid-query must not have its stale verdicts re-persisted
	// after the catalog tombstone. Mutated under cacheMu.
	invalidations atomic.Int64

	// Engine-lifetime observability counters (summed over completed
	// queries / warm-start events).
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	columnMemoHits atomic.Int64

	// Batch execution observability (see BatchCounters).
	batchesInFlight atomic.Int64
	peakBatchRows   atomic.Int64
	batchesTotal    atomic.Int64
}

// The paper's values for correlated-column discovery (§4.4) and the virtual
// column (§6.3.2); the labeling fraction is core.DefaultLabelFraction.
const (
	// virtualBuckets is the bucket count of the logistic-regression virtual
	// column.
	virtualBuckets = 10
	// maxCandidateCardinality caps candidate correlated columns, matching
	// the paper's column scan.
	maxCandidateCardinality = 50
)

// New returns an engine with the given deterministic seed. Its cost model is
// the paper's, core.DefaultCost (o_r = 1, o_e = 3); a UDF's own cost
// overrides o_e.
func New(seed uint64) *Engine {
	return &Engine{
		tables:          make(map[string]*table.Table),
		registry:        NewRegistry(),
		Parallelism:     runtime.GOMAXPROCS(0),
		CacheUDFResults: true,
		seed:            seed,
		breakers:        make(map[breakerKey]*resilience.Breaker),
		evalCaches:      make(map[evalCacheKey]*core.SharedEvalCache),
		flushedLens:     make(map[evalCacheKey]int),
	}
}

// parallelism resolves the effective worker cap.
func (e *Engine) parallelism() int {
	if e.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.Parallelism
}

// RegisterTable adds a table; the name must be unused.
func (e *Engine) RegisterTable(t *table.Table) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.tables[t.Name()]; dup {
		return fmt.Errorf("engine: table %q already registered", t.Name())
	}
	e.tables[t.Name()] = t
	return nil
}

// TableNames lists the registered tables in sorted order.
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.tables))
	for name := range e.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Table looks up a registered table.
func (e *Engine) Table(name string) (*table.Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return t, nil
}

// RegisterUDF adds a UDF to the engine's registry. Re-registering an
// existing name replaces its body, so every cached outcome for that name
// is dropped — from the in-memory eval caches AND from the attached
// durable catalog (durably, before this returns) — because a changed body
// must never serve verdicts the old body computed. A first-time
// registration invalidates nothing: persisted verdicts from earlier
// process lives stay warm, which is the whole point of the catalog (the
// durability contract trusts the operator to register the same body
// across restarts; see DESIGN.md).
func (e *Engine) RegisterUDF(u UDF) error {
	if !e.registry.Has(u.Name) {
		return e.registry.Register(u)
	}
	// Invalidate BEFORE swapping the body in: if the durable tombstone
	// cannot be written, the old body stays active and the persisted
	// verdicts remain consistent with it — never the other way around.
	// Holding cacheMu across memory drop + tombstone serializes against
	// FlushCatalog and persistQueryLearnings, so no stale verdict can be
	// re-persisted after the tombstone.
	e.cacheMu.Lock()
	e.invalidateUDFLocked(u.Name)
	c := e.catalog
	var err error
	if c != nil {
		err = c.InvalidateUDF(u.Name)
	}
	e.cacheMu.Unlock()
	if err != nil {
		return fmt.Errorf("engine: invalidating catalog entries for UDF %q: %w", u.Name, err)
	}
	return e.registry.Register(u)
}

// ExecuteContext runs the query and returns the matching row ids plus
// statistics. Every UDF-evaluating phase (labeling, sampling, execution,
// exact scans) checks the context between work items, so a cancel or
// deadline returns ctx.Err() after at most one in-flight UDF call per
// worker. A cancelled query leaves the engine fully reusable — the
// cross-query outcome cache keeps every completed (and paid) evaluation, no
// entry is ever stored partially, and a later run of the same query
// completes normally. See DESIGN.md, "Cancellation contract".
func (e *Engine) ExecuteContext(ctx context.Context, q Query) (*Result, error) {
	res, _, err := e.executeStatement(ctx, q, false, nil)
	return res, err
}

// executeStatement is the uniform execution path for every query shape:
// validate, bind tables and predicates, lower into the physical operator
// chain, and run it: its blocking stages in order, then one batch loop (see
// batch.go); shapes differ only in the plan they lower to (see planner.go
// and operators.go). With analyze set, the executed tree comes back with
// per-operator Actual counts (EXPLAIN ANALYZE); the returned root is nil
// otherwise. A non-nil sink streams result batches as they are produced
// instead of materializing Result.Rows. A trace attached to ctx
// (obs.WithTrace) gets bind/plan/operator spans either way.
func (e *Engine) executeStatement(ctx context.Context, q Query, analyze bool, sink RowSink) (*Result, *plan.Node, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var st *pipeState
	var err error
	obs.Timed(ctx, "bind", func() { st, err = e.bindStatement(q) })
	if err != nil {
		return nil, nil, err
	}
	st.analyze = analyze
	var root *plan.Node
	obs.Timed(ctx, "plan", func() { root, err = plan.Physical(e.buildSpec(st)) })
	if err != nil {
		return nil, nil, err
	}
	// Captured before any evaluation: if a UDF body is replaced while this
	// query runs, its learnings are not persisted (see persistQueryLearnings).
	st.epoch = e.invalidations.Load()
	if q.Approx != nil {
		// The n-th approximate statement draws under the seed's n-th sub-key
		// (exact shapes draw nothing), so repetitions are independent trials.
		st.key = stats.Key(e.seed).Sub(e.statements.Add(1) - 1)
	}
	// One pool evaluates every UDF-calling stage and the batch loop, so its
	// workers start about once per statement, not once per batch; it is
	// closed on every way out, a panic included.
	st.pool = exec.NewPool(e.parallelism())
	defer st.pool.Close()
	if err := e.runPipeline(ctx, root, st, sink); err != nil {
		return nil, nil, err
	}
	if err := st.failure(); err != nil {
		return nil, nil, err
	}
	e.cacheHits.Add(int64(st.res.Stats.CacheHits))
	e.cacheMisses.Add(int64(st.res.Stats.CacheMisses))
	if !analyze {
		root = nil
	}
	return st.res, root, nil
}

// universe resolves a row subset: nil means every row of the table.
func universe(tbl *table.Table, subset []int) []int {
	if subset != nil {
		return subset
	}
	rows := make([]int, tbl.NumRows())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// candidateColumns partitions the statement's row universe by every column
// but the UDF argument (usually a key, not a predictor) and keeps, in schema
// order, those with 2..maxCandidateCardinality groups — §4.4's column scan.
// table.Partition gives up on a column as soon as it sees too many values.
func candidateColumns(st *pipeState) []core.Candidate {
	var cands []core.Candidate
	schema := st.tbl.Schema()
	for i := 0; i < schema.Len(); i++ {
		name := schema.Col(i).Name
		if name == st.preds[0].spec.UDFArg {
			continue
		}
		groups, ok := table.Partition(st.tbl.Column(i), st.subset, maxCandidateCardinality)
		if !ok || len(groups) < 2 {
			continue
		}
		cands = append(cands, core.Candidate{Name: name, Groups: groups})
	}
	return cands
}

// labeler is §4.4's and §6.3.2's labeling draw: a one-group sampler over
// the statement's universe (returned beside it) on the first predicate.
func (e *Engine) labeler(st *pipeState) (*core.Sampler, []int) {
	rows := universe(st.tbl, st.subset)
	s := core.NewJointSampler([]core.Group{{Key: "all", Rows: rows}}, st.meters()[:1], st.key.Sub(core.LabelDraw))
	s.SetPool(st.pool)
	return s, rows
}

// label is the labeling loop §4.4 and §6.3.2 share: the labeler's sample is
// topped up in doubling rounds of ⌈frac·n⌉ more rows, frac from
// core.DefaultLabelFraction up to 1, until enough accepts the labels or a
// round has labeled the whole universe. No label at all means every one
// failed, and labeling more would only fail more, so an empty round also
// ends the loop (without asking enough). It returns the last round's labels
// and the universe.
func (e *Engine) label(ctx context.Context, st *pipeState, enough func(labeled map[int]bool) bool) (map[int]bool, []int, error) {
	labels, rows := e.labeler(st)
	target := 0
	for frac := core.DefaultLabelFraction; ; frac = min(2*frac, 1) {
		target += core.LabelTarget(frac, len(rows))
		if _, err := labels.TopUpCtx(ctx, []int{target}); err != nil {
			return nil, nil, err
		}
		labeled := labels.Outcomes()[0].Results
		if len(labeled) == 0 || enough(labeled) || frac >= 1 {
			return labeled, rows, nil
		}
	}
}

// discoverColumn implements Section 4.4's column scan: label a small
// fraction of tuples, score every low-cardinality column with the
// Section 3.2 planner, pick the cheapest. While every candidate is
// disqualified it labels more, ending with one attempt over the whole
// universe. It also returns how many rows it labeled.
func (e *Engine) discoverColumn(ctx context.Context, st *pipeState) ([]core.Group, string, int, error) {
	q := st.q
	cands := candidateColumns(st)
	if len(cands) == 0 {
		return nil, "", 0, fmt.Errorf("engine: table %q has no candidate correlated columns; use GROUP ON or %q", q.Table, VirtualColumn)
	}
	var choice core.ColumnChoice
	var selErr error
	labeled, _, err := e.label(ctx, st, func(labeled map[int]bool) bool {
		choice, selErr = core.SelectColumn(cands, labeled, q.Approx.Constraints(), st.cost)
		return selErr == nil
	})
	switch {
	case err != nil:
		return nil, "", 0, err
	case len(labeled) == 0:
		_, ferr := st.preds[0].meter.Failure()
		return nil, "", 0, fmt.Errorf("engine: every row labeled to discover a correlated column for table %q failed: %w", q.Table, ferr)
	case selErr != nil:
		return nil, "", 0, fmt.Errorf("engine: could not qualify any correlated column for table %q", q.Table)
	}
	return cands[choice.Index].Groups, choice.Name, len(labeled), nil
}

// virtualColumn implements Section 6.3.2: label ~1% of rows and hand them,
// with the table's encodable features, to ml.VirtualGroups (train, score
// every row, bucket the scores into equal-frequency groups), counting labels.
// Labels of one class give the model nothing to learn, so labeling goes on
// until both classes appear or the whole universe is labeled; a universe of
// one class is then answered as one group.
func (e *Engine) virtualColumn(ctx context.Context, st *pipeState) ([]core.Group, string, int, error) {
	tbl := st.tbl
	enc, err := ml.BuildEncoder(tbl, ml.Encoder{
		MaxCardinality: maxCandidateCardinality,
		Exclude:        []string{st.preds[0].spec.UDFArg},
	})
	if err != nil {
		return nil, "", 0, fmt.Errorf("engine: virtual column needs encodable features: %w", err)
	}
	labeled, rows, err := e.label(ctx, st, func(labeled map[int]bool) bool { return !ml.OneClass(labeled) })
	if err != nil {
		return nil, "", 0, err
	}
	parts, err := ml.VirtualGroups(func(row int) []float64 { return enc.EncodeRow(tbl, row) }, rows, labeled, virtualBuckets)
	if err != nil {
		return nil, "", 0, fmt.Errorf("engine: training virtual column: %w", err)
	}
	return parts, VirtualColumn, len(labeled), nil
}

// projection validates the requested columns and returns their indices in
// projection order (every column, in schema order, for SELECT *).
func (e *Engine) projection(tbl *table.Table, cols []string) ([]int, error) {
	if len(cols) == 0 || (len(cols) == 1 && cols[0] == "*") {
		idxs := make([]int, tbl.Schema().Len())
		for i := range idxs {
			idxs[i] = i
		}
		return idxs, nil
	}
	idxs := make([]int, len(cols))
	for i, name := range cols {
		j := tbl.Schema().Lookup(name)
		if j < 0 {
			return nil, fmt.Errorf("engine: table %q has no column %q", tbl.Name(), name)
		}
		idxs[i] = j
	}
	return idxs, nil
}

// Materialize builds a new typed table holding the result rows with the
// query's projection applied. Query results are rendered by Renderer, which
// never builds this table; Materialize is for callers that want typed cells,
// and the reference Renderer's text is tested against.
func (e *Engine) Materialize(q Query, res *Result) (*table.Table, error) {
	tbl, err := e.Table(q.Table)
	if err != nil {
		return nil, err
	}
	idxs, err := e.projection(tbl, q.Columns)
	if err != nil {
		return nil, err
	}
	defs := make([]table.ColumnDef, len(idxs))
	for i, j := range idxs {
		defs[i] = tbl.Schema().Col(j)
	}
	schema, err := table.NewSchema(defs...)
	if err != nil {
		return nil, err
	}
	out := table.New(tbl.Name()+"_result", schema)
	vals := make([]table.Value, len(idxs))
	for _, row := range res.Rows {
		for i, j := range idxs {
			vals[i] = tbl.Column(j).Value(row)
		}
		if err := out.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	return out, nil
}
