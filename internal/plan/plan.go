// Package plan is the engine's planner layer: one rewrite rule per
// statement shape turns the query description into a chain of physical
// operators (scan → cheap-filter → group-resolve → sample → solve →
// probabilistic-eval → merge and its conjunction and join variants). The
// plan is the pipeline: the engine compiles exactly one operator per node
// (the filter node fused into the scan's), so the chain EXPLAIN prints is
// the chain that runs, and under EXPLAIN ANALYZE every node carries what its
// operator measurably did.
//
// The package also owns the statement itself (query.go): Query and its
// clauses are declared here once, below both the parser that fills them in
// and the engine that binds and runs them, so internal/sqlparse depends on
// this package and not on the engine. It imports nothing above
// internal/core. The engine hands the rewrite rules a Spec — the Query plus
// what only it knows (row counts, the filtered universe's size,
// per-predicate costs, any catalog-memoized column choice) — and runs the
// returned Chain. Keeping the shapes here
// means a new query form is a new rewrite rule plus an operator, not a new
// dispatch branch.
package plan

import (
	"math"

	"repro/internal/core"
)

// Op identifies a plan node: it names the operator the engine runs for it.
type Op string

const (
	// The single-predicate pipeline stages.
	OpScan         Op = "scan"          // row universe of a table
	OpFilter       Op = "filter"        // cheap typed predicates, pushed first
	OpGroupResolve Op = "group-resolve" // correlated-column grouping
	OpSample       Op = "sample"        // per-group selectivity estimation
	OpSolve        Op = "solve"         // optimizer: strategy from estimates
	OpProbEval     Op = "prob-eval"     // per-tuple coins; rows out ascending
	OpMerge        Op = "merge"         // persist learnings, assemble stats

	// Exact, conjunction and join operators.
	OpExactEval  Op = "exact-eval"  // evaluate the predicate on every row
	OpConjSample Op = "conj-sample" // fused sampling of all N predicates
	OpConjSolve  Op = "conj-solve"  // §5 five-action per-group plan (N=2)
	OpConjExec   Op = "conj-exec"   // execute the five-action plan
	OpConjWaves  Op = "conj-waves"  // short-circuit waves over ordered preds
	OpJoinGroup  Op = "join-group"  // (group, join-multiplicity) subgroups
)

// Group-resolve modes (Node.Mode).
const (
	ModePinned  = "pinned"  // GROUP ON column
	ModeAuto    = "auto"    // §4.4 discovery (memo-accelerated)
	ModeVirtual = "virtual" // §6.3.2 logistic-regression buckets
	// Solve modes.
	ModeConstrained = "constrained" // min cost s.t. α, β, ρ
	ModeBudget      = "budget"      // max recall s.t. α, ρ, cost ≤ B
	ModeJoinWeight  = "join-weight" // constrained, join-multiplicity-weighted
	// Conj-waves orderings.
	ModeQueryOrder  = "query-order" // predicates as written
	ModeGreedyOrder = "greedy"      // cheapest-first from sampled selectivities
)

// Attr is one display attribute of a node (ordered, for stable EXPLAIN
// output).
type Attr struct {
	Key, Value string
}

// Node is one plan node: one operator of the pipeline.
type Node struct {
	Op   Op
	Mode string // operator variant, one of the Mode* constants ("" when unique)
	// Column is the node's principal column (group column, join key), when
	// meaningful.
	Column string
	// EstRows is the planner's row estimate flowing out of the node;
	// EstCost its estimated cost in cost-model units. CostIsBound marks an
	// upper bound (printed "≤") rather than a point estimate ("≈").
	EstRows     int
	EstCost     float64
	CostIsBound bool
	// Detail holds extra display attributes.
	Detail []Attr
	// Actual holds the measured execution counts of the node (EXPLAIN
	// ANALYZE); nil on plain EXPLAIN.
	Actual *Actual
}

// Actual is what one physical operator measurably did during execution.
// Every count field is derived from deterministic engine counters and is
// bit-identical at any parallelism setting; ElapsedNS is wall-clock and
// display-only — determinism comparisons must zero it first (ZeroTimings).
type Actual struct {
	// Rows the operator produced (result rows, sampled rows for sampling
	// operators, surviving rows for filters).
	Rows int
	// Groups the operator resolved (grouping operators only).
	Groups int
	// Calls is the delta of charged UDF invocations across the statement's
	// predicates while this operator ran; CacheHits/CacheMisses split the
	// cross-query cache traffic the same way.
	Calls       int
	CacheHits   int
	CacheMisses int
	// Retries, Denied and Failed are the resilience deltas: extra attempts,
	// rows denied by an open circuit breaker, and rows whose invocation
	// ultimately failed.
	Retries int
	Denied  int
	Failed  int
	// ElapsedNS is the operator's wall time (the nodes below it excluded).
	// Display only: excluded from the determinism contract.
	ElapsedNS int64
}

// Chain is a physical plan: one pipeline, one input per node, leaf first.
// Its first node is the scan; a filter, when the statement has cheap
// predicates, comes second; then the blocking stages in the order they run;
// and the last node is the one finisher that produces the result —
// exact-eval, conj-waves or merge. Physical builds nothing else.
type Chain []*Node

// ZeroTimings clears every wall-clock field in the chain, leaving only the
// deterministic count fields — the form determinism tests compare.
func ZeroTimings(c Chain) {
	for _, n := range c {
		if n.Actual != nil {
			n.Actual.ElapsedNS = 0
		}
	}
}

// Find returns the first node with the given op, or nil.
func (c Chain) Find(op Op) *Node {
	for _, n := range c {
		if n.Op == op {
			return n
		}
	}
	return nil
}

// Spec is what the rewrite rules shape: the validated statement plus what
// only the engine knows about it. It is the seam between the engine and
// this package. The rules the engine runs by — o_r, the sampling allocation
// and the labeling fraction — are read from internal/core, where they are
// declared once.
type Spec struct {
	Query Query
	// Rows is the base table's row count; JoinRows the join table's (join
	// shape only).
	Rows     int
	JoinRows int
	// FilteredRows is the row universe every node above the scan sees: how
	// many rows the cheap filters keep, counted exactly from the engine's
	// posting index, or Rows without filters.
	FilteredRows int
	// EvalCosts holds each expensive predicate's o_e, parallel to
	// Query.Predicates.
	EvalCosts []float64
	// MemoColumn is a catalog-memoized §4.4 choice for this workload (""
	// when unknown); discovery starts there and falls back if stale.
	MemoColumn string
}

// sampleNum is the num factor of the engine's Two-Third-Power allocation.
func (s Spec) sampleNum() float64 { return core.DefaultAllocator(s.Query.Approx.Precision).Num }

// estSampleRows estimates the Two-Third-Power allocation over n rows:
// Fₐ = num·tₐ·n^(−1/3) sums to num·n^(2/3).
func (s Spec) estSampleRows(n int) int {
	if n <= 0 {
		return 0
	}
	est := int(math.Round(s.sampleNum() * math.Pow(float64(n), 2.0/3.0)))
	if est > n {
		est = n
	}
	if est < 0 {
		est = 0
	}
	return est
}

// estLabelRows estimates the §4.4 labeling pass size.
func (s Spec) estLabelRows(n int) int {
	est := int(math.Round(core.DefaultLabelFraction * float64(n)))
	if est > n {
		est = n
	}
	return est
}

// perRow is o_r + o_e for the first predicate — the one every
// single-predicate stage evaluates.
func (s Spec) perRow() float64 { return core.DefaultCost.Retrieve + s.EvalCosts[0] }

// perRowAll is o_r + Σ o_e: one row retrieved and every predicate
// evaluated on it.
func (s Spec) perRowAll() float64 {
	total := 0.0
	for _, c := range s.EvalCosts {
		total += c
	}
	return core.DefaultCost.Retrieve + total
}
