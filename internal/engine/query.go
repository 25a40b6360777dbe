package engine

import "repro/internal/plan"

// The statement AST is declared once, in internal/plan (below the parser
// and this package, so both can name it). The engine re-exports the names
// its own code and tests spell unqualified; each is the plan declaration,
// not a second one.
type (
	Query         = plan.Query
	Approx        = plan.Approx
	Join          = plan.Join
	Conjunct      = plan.Conjunct
	Filter        = plan.Filter
	FailurePolicy = plan.FailurePolicy
)

const (
	FailOnError   = plan.FailOnError
	DegradeFailed = plan.DegradeFailed
	VirtualColumn = plan.VirtualColumn
)

// Stats reports how a query execution spent its budget. It is the one
// statistics type from the operators to the wire: predeval.Stats is an alias
// of it, and the JSON tags (with this field order) are predsqld's "stats"
// object.
type Stats struct {
	// Evaluations is the number of UDF invocations (sampling + execution).
	Evaluations int `json:"evaluations"`
	// Retrievals is the number of tuples fetched.
	Retrievals int `json:"retrievals"`
	// Sampled is the number of tuples examined before execution: the rows
	// labeled to choose or train the grouping plus the sampler's draw. Zero
	// for exact queries. On a cold UDF cache each is also an Evaluation,
	// but a label the draw picks again counts twice here and is evaluated
	// once; sampled tuples a warm cross-query cache serves are not charged.
	Sampled int `json:"sampled"`
	// Cost is o_r·Retrievals + o_e·Evaluations.
	Cost float64 `json:"cost"`
	// ChosenColumn is the correlated (possibly virtual) column the
	// optimizer used ("" for exact execution).
	ChosenColumn string `json:"chosen_column,omitempty"`
	// Exact reports whether the query ran without approximation.
	Exact bool `json:"exact"`
	// AchievedRecallBound is set for budget queries: the recall bound the
	// planner could afford.
	AchievedRecallBound float64 `json:"achieved_recall_bound,omitempty"`
	// CacheHits counts rows this query was served from the cross-query
	// outcome cache (no UDF invocation charged). Zero when the cache is
	// disabled.
	CacheHits int `json:"cache_hits"`
	// CacheMisses counts cache lookups this query paid for with a fresh
	// UDF invocation. Zero when the cache is disabled.
	CacheMisses int `json:"cache_misses"`
	// FailedRows counts rows whose UDF invocation ultimately failed (after
	// retries, or denied by an open circuit breaker), summed per predicate:
	// a row failing under two predicates counts twice. Failed rows are
	// excluded from the output and from all learned evidence.
	FailedRows int `json:"failed_rows,omitempty"`
	// Retries counts the extra UDF invocation attempts retries made beyond
	// each row's first.
	Retries int `json:"retries,omitempty"`
	// BreakerTrips counts how many times this query tripped a circuit
	// breaker open.
	BreakerTrips int `json:"breaker_trips,omitempty"`
	// Degraded marks a partial result: at least one row was excluded
	// because its UDF invocation failed (FailedRows > 0), which only the
	// "degrade" failure policy returns; under "fail" such a statement errors.
	// (On the wire it is a top-level response field, not part of "stats".)
	Degraded bool `json:"-"`
}

// Result is a query's output: the matching row ids of the base table (so
// callers can project whatever they need) plus execution statistics.
type Result struct {
	Rows  []int
	Stats Stats
}
