package engine

import (
	"repro/internal/catalog"
	"repro/internal/core"
)

// Cross-query UDF memoization. Under production traffic the same expensive
// predicate is applied to the same table over and over (by different
// queries, different constraint settings, or repeated identical queries);
// since a registered UDF is a pure function of one column's cell and table
// rows are append-only, an outcome computed once never needs re-paying o_e.
// The engine keeps one SharedEvalCache per (table, UDF, column) key and
// threads it beneath each query's Meter: cache hits bypass the UDF body
// and are not charged as evaluations, so Stats.Evaluations and Stats.Cost
// reflect only genuinely new work. The cache stores the RAW body outcome;
// the query's "= 0/1" comparison is folded at lookup, so complementary
// queries (want=1 vs want=0) share each other's evaluations.
//
// The cache is keyed by row id within the table. Rows appended after a
// cache exists simply miss and get evaluated; existing rows cannot be
// mutated through the table API, so entries never go stale.

// evalCacheKey identifies one memoizable predicate application.
type evalCacheKey struct {
	table  string
	udf    string
	column string
}

// evalCache returns (creating on first use) the shared cache for key. A
// freshly created cache seeds itself from the attached durable catalog, so
// verdicts paid for in earlier process lives are served without ever
// invoking the UDF; what it preloaded is already durable, so its flush
// watermark starts there. Only rows of the table, [0, numRows), are
// seeded: a row id is a table position, and a catalog written for a
// longer table (or by hand) may hold others.
func (e *Engine) evalCache(key evalCacheKey, numRows int) *core.SharedEvalCache {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	c, ok := e.evalCaches[key]
	if !ok {
		c = core.NewSharedEvalCache()
		if e.catalog != nil {
			prior := e.catalog.Outcomes(catalog.OutcomeKey{Table: key.table, UDF: key.udf, Column: key.column})
			c.Load(func(yield func(int, bool) bool) {
				for row, v := range prior {
					if row >= numRows {
						return // ascending: no later row is in the table either
					}
					if row >= 0 && !yield(row, v) {
						return
					}
				}
			})
			e.flushedLens[key] = c.Len()
		}
		e.evalCaches[key] = c
	}
	return c
}

// wantFoldedCache maps between the raw body outcomes held in the shared
// cache and the want-folded verdicts the query's Meter works with: verdict
// v relates to raw outcome r by v = (r == want), which inverts to
// r = (v == want).
type wantFoldedCache struct {
	inner core.EvalCache
	want  bool
}

func (c wantFoldedCache) Lookup(row int) (bool, bool) {
	raw, ok := c.inner.Lookup(row)
	return raw == c.want, ok
}

func (c wantFoldedCache) Store(row int, v bool) {
	c.inner.Store(row, v == c.want)
}

// InvalidateUDFCache drops every cached outcome (all tables and UDFs).
func (e *Engine) InvalidateUDFCache() {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	e.invalidations.Add(1)
	e.evalCaches = make(map[evalCacheKey]*core.SharedEvalCache)
	e.flushedLens = make(map[evalCacheKey]int)
}

// invalidateUDFLocked drops cached outcomes of one UDF name (all tables)
// and bumps the invalidation epoch; RegisterUDF calls this when replacing
// a body. Callers hold cacheMu.
func (e *Engine) invalidateUDFLocked(name string) {
	e.invalidations.Add(1)
	for key := range e.evalCaches {
		if key.udf == name {
			delete(e.evalCaches, key)
			delete(e.flushedLens, key)
		}
	}
}
