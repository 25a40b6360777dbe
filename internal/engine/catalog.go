package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/table"
)

// Durable catalog integration. When a catalog is attached the engine
// warm-starts from persisted state instead of re-paying o_e after a
// restart:
//
//   - the cross-query eval caches are seeded lazily from persisted raw
//     verdicts (so a repeated workload pays no evaluation for a row whose
//     verdict is known);
//   - the Section 4.4 correlated-column discovery result is memoized per
//     workload key, so repeat queries skip the labeling scan entirely.
//
// A sample is never persisted: each statement draws its own, so a warm
// engine returns the rows a cold one at the same seed returns, and only
// what the answer costs differs.
//
// Writes go to the catalog's memory as queries finish; FlushCatalog (or a
// server's periodic flush) makes them durable. A column memo is gated on
// the statement's failure (see pipeState.failure): a query that fails on a
// row memoizes nothing, while the verdicts its other rows paid for are
// genuine and stay cached. The same hygiene extends structurally to
// per-row failures under the degrade policy: a row whose invocation
// ultimately fails (retries exhausted, breaker denial) is excluded from
// the eval cache and output before any of the snapshots below are taken,
// so no failed row is ever persisted as a verdict.
//
// Like Parallelism, attach the catalog before serving queries.

// SetCatalog attaches a durable catalog. Eval caches created afterwards
// seed themselves from it; pass nil to detach. Configure before serving
// queries (see SetParallelism).
func (e *Engine) SetCatalog(c *catalog.Catalog) {
	e.cacheMu.Lock()
	e.catalog = c
	e.cacheMu.Unlock()
}

// Catalog returns the attached catalog (nil when none).
func (e *Engine) Catalog() *catalog.Catalog {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	return e.catalog
}

// FlushCatalog folds every in-memory eval cache into the catalog and
// flushes it to disk. No-op without an attached catalog. Caches whose
// size has not moved since their last flush are skipped without
// snapshotting (outcomes only accumulate; invalidation drops whole
// caches and their flush watermark), so an idle server's periodic flush
// costs O(1) per cache, not O(rows). cacheMu is held throughout: an
// invalidation can only run entirely before (its dropped caches are not
// in the map) or entirely after (its tombstone lands after these
// records, and replay order wins), never interleaved.
func (e *Engine) FlushCatalog() error {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	c := e.catalog
	if c == nil {
		return nil
	}
	// Iterate caches in sorted key order: AddOutcomes appends WAL records,
	// and the log's byte stream must be a deterministic function of the
	// workload, not of map iteration order (same contract as the catalog's
	// own snapshotRecords).
	keys := make([]evalCacheKey, 0, len(e.evalCaches))
	for k := range e.evalCaches {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.table != b.table {
			return a.table < b.table
		}
		if a.udf != b.udf {
			return a.udf < b.udf
		}
		return a.column < b.column
	})
	for _, k := range keys {
		sc := e.evalCaches[k]
		n := sc.Len()
		if n == e.flushedLens[k] {
			continue
		}
		c.AddOutcomes(catalog.OutcomeKey{Table: k.table, UDF: k.udf, Column: k.column}, sc.Snapshot())
		e.flushedLens[k] = n
	}
	return c.Flush()
}

// CloseCatalog flushes, compacts and closes the attached catalog, then
// detaches it. No-op without one.
func (e *Engine) CloseCatalog() error {
	if err := e.FlushCatalog(); err != nil {
		return err
	}
	e.cacheMu.Lock()
	c := e.catalog
	e.catalog = nil
	e.cacheMu.Unlock()
	if c == nil {
		return nil
	}
	if err := c.Compact(); err != nil {
		c.Close()
		return err
	}
	return c.Close()
}

// CacheCounters reports engine-lifetime cross-query eval-cache hits and
// misses (summed over completed queries).
func (e *Engine) CacheCounters() (hits, misses int64) {
	return e.cacheHits.Load(), e.cacheMisses.Load()
}

// CatalogCounters summarizes warm-start activity since engine creation.
type CatalogCounters struct {
	// ColumnMemoHits counts queries whose Section 4.4 discovery pass was
	// skipped because the catalog had memoized the chosen column.
	ColumnMemoHits int64
}

// CatalogCounters reports warm-start activity since engine creation.
func (e *Engine) CatalogCounters() CatalogCounters {
	return CatalogCounters{ColumnMemoHits: e.columnMemoHits.Load()}
}

// workloadKey canonicalizes everything that influences the Section 4.4
// column choice: the (first) predicate's application, the cheap-filter
// subset, the accuracy constraints and the cost model. Two statements with
// equal keys would discover the same column, so the choice is safe to
// memoize.
func workloadKey(st *pipeState) string {
	q, p := st.q, st.preds[0].spec
	parts := []string{
		"v1", q.Table, p.UDFName, p.UDFArg, fmt.Sprintf("want=%t", p.Want),
		fmt.Sprintf("cost=%g,%g", st.cost.Retrieve, st.cost.Evaluate),
	}
	if q.Approx != nil {
		parts = append(parts, fmt.Sprintf("apr=%g,%g,%g", q.Approx.Precision, q.Approx.Recall, q.Approx.Probability))
	}
	if len(q.Filters) > 0 {
		parts = append(parts, "flt="+filterKey(q.Filters))
	}
	return strings.Join(parts, "\x1f")
}

// filterKey canonicalizes a cheap-filter set: "col=value" terms, sorted,
// joined by "&" ("" for no filters). The §4.4 memo is keyed by it because
// the filtered subset shapes the column choice.
func filterKey(filters []Filter) string {
	fs := make([]string, len(filters))
	for i, f := range filters {
		fs[i] = f.Column + "=" + f.Value
	}
	sort.Strings(fs)
	return strings.Join(fs, "&")
}

// peekMemoColumn reports the catalog-memoized §4.4 column choice for the
// statement's workload, if one exists.
func (e *Engine) peekMemoColumn(st *pipeState) (string, bool) {
	c := e.Catalog()
	if c == nil {
		return "", false
	}
	return c.ChosenColumn(workloadKey(st))
}

// memoizedColumn returns persisted discovery output for the query's
// workload, if the memoized column still yields a usable grouping.
func (e *Engine) memoizedColumn(st *pipeState) ([]core.Group, string, bool) {
	name, ok := e.peekMemoColumn(st)
	if !ok {
		return nil, "", false
	}
	// The memo names a column chosen at run time, so this lookup cannot move
	// into bindStatement; a stale name is a miss, not an error.
	var groups []core.Group
	if col := st.tbl.ColumnByName(name); col != nil {
		groups, _ = table.Partition(col, st.subset, maxCandidateCardinality)
	}
	if len(groups) < 2 {
		// The table changed shape since the memo was written: fall back to
		// a fresh discovery pass (which overwrites the memo).
		return nil, "", false
	}
	e.columnMemoHits.Add(1)
	return groups, name, true
}

// persistQueryLearnings records what an approximate query learned: when
// discovery ran, the chosen column. Two gates protect the catalog from
// poison: the statement's failure (a query that errors memoizes nothing)
// and the invalidation epoch captured before the query evaluated anything
// — if a UDF body was replaced mid-query, this query's choice may rest on
// the old body and is discarded rather than re-persisted after the
// tombstone. cacheMu serializes the epoch check with RegisterUDF's
// invalidation.
func (e *Engine) persistQueryLearnings(st *pipeState) {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	c := e.catalog
	if c == nil || st.failure() != nil || e.invalidations.Load() != st.epoch {
		return
	}
	if chosen := st.chosen; st.q.GroupOn == "" && chosen != "" && chosen != VirtualColumn {
		c.SetChosenColumn(workloadKey(st), st.preds[0].spec.UDFName, chosen)
	}
}
