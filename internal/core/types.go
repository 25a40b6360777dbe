// Package core implements the paper's contribution: optimizers that decide,
// per group of tuples sharing a correlated-attribute value, the probability
// of retrieving (Rₐ) and evaluating (Eₐ) tuples so that a selection query
// with an expensive UDF predicate meets user-specified precision (α),
// recall (β) and satisfaction-probability (ρ) constraints at minimum
// expected cost.
//
// Each program the paper poses has one solver here:
//
//   - Perfect selectivities (§3.2): BIGREEDY-LP on the Hoeffding-tightened
//     linear program (PlanPerfectSelectivities).
//   - Estimated selectivities (§3.3, §4): the Cantelli-tightened convex
//     programs (PlanEstimated*), of which Convex Prog. 4.1 (PlanWithSamples)
//     is the engine's; weighted by join multiplicity it is §5's selection
//     before join (PlanSelectJoin).
//   - Per-group action choices: one exact branch and bound (ChooseActions),
//     handed five actions per group by §5's two-predicate planner and three
//     by §3.1's perfect-information problem (in internal/experiments).
//
// The package also implements the Section 4 machinery for jointly
// estimating and exploiting selectivities (the Two-Third-Power allocator,
// Beta posterior estimates, correlated-column selection), the probabilistic
// executor, metering, and the Section 5 extensions (cost budgets, multiple
// predicates, selection before join). It holds what internal/engine
// executes; the paper's baselines, oracles and alternative allocators are
// in internal/experiments.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/table"
)

// Constraints carries the user's accuracy requirements: precision lower
// bound Alpha, recall lower bound Beta, and satisfaction probability Rho
// (each constraint must hold with probability at least Rho).
type Constraints struct {
	Alpha float64
	Beta  float64
	Rho   float64
}

// Validate checks all fields lie in [0, 1].
func (c Constraints) Validate() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: precision bound α=%v outside [0,1]", c.Alpha)
	}
	if c.Beta < 0 || c.Beta > 1 {
		return fmt.Errorf("core: recall bound β=%v outside [0,1]", c.Beta)
	}
	if c.Rho < 0 || c.Rho >= 1 {
		return fmt.Errorf("core: satisfaction probability ρ=%v outside [0,1)", c.Rho)
	}
	return nil
}

// CostModel carries the per-tuple costs: Retrieve is o_r (fetching a tuple
// from storage) and Evaluate is o_e (one UDF invocation). Evaluating a
// tuple always retrieves it first, so its total cost is o_r + o_e.
type CostModel struct {
	Retrieve float64
	Evaluate float64
}

// DefaultCost matches the paper's experimental setting: o_r = 1, o_e = 3.
var DefaultCost = CostModel{Retrieve: 1, Evaluate: 3}

// Validate checks costs are non-negative.
func (c CostModel) Validate() error {
	if c.Retrieve < 0 || c.Evaluate < 0 {
		return fmt.Errorf("core: negative cost (o_r=%v, o_e=%v)", c.Retrieve, c.Evaluate)
	}
	return nil
}

// GroupInfo is what the optimizer knows about one group of tuples sharing a
// correlated-attribute value.
type GroupInfo struct {
	// Size is tₐ, the number of tuples in the group (always known).
	Size int
	// Selectivity is sₐ: exact in the perfect-selectivity regime, the
	// posterior mean in the estimated regime.
	Selectivity float64
	// Variance is vₐ, the variance of the selectivity estimate; zero when
	// selectivities are known exactly.
	Variance float64
	// Sampled is Fₐ, the number of tuples already retrieved and evaluated
	// while estimating selectivities (Section 4). Zero if none.
	Sampled int
	// SampledPositive is F⁺ₐ, how many sampled tuples satisfied the
	// predicate. At most Sampled.
	SampledPositive int
}

// Remaining returns tₐ − Fₐ, the tuples the execution strategy still acts
// on.
func (g GroupInfo) Remaining() int { return g.Size - g.Sampled }

// Validate checks internal consistency.
func (g GroupInfo) Validate() error {
	if g.Size < 0 {
		return fmt.Errorf("core: negative group size %d", g.Size)
	}
	if g.Selectivity < 0 || g.Selectivity > 1 {
		return fmt.Errorf("core: selectivity %v outside [0,1]", g.Selectivity)
	}
	if g.Variance < 0 {
		return fmt.Errorf("core: negative variance %v", g.Variance)
	}
	if g.Sampled < 0 || g.Sampled > g.Size {
		return fmt.Errorf("core: sampled count %d outside [0,%d]", g.Sampled, g.Size)
	}
	if g.SampledPositive < 0 || g.SampledPositive > g.Sampled {
		return fmt.Errorf("core: sampled positives %d outside [0,%d]", g.SampledPositive, g.Sampled)
	}
	return nil
}

// GroupInfoFromSample builds the estimated-selectivity view of a group from
// its sampling outcome, using the Beta-posterior estimates of Section 4.1:
// sₐ = (F⁺+1)/(F+2) and vₐ = sₐ(1−sₐ)/(F+3).
func GroupInfoFromSample(size, sampled, positives int) GroupInfo {
	post := stats.NewBetaPosterior(positives, sampled-positives)
	return GroupInfo{
		Size:            size,
		Selectivity:     post.Mean(),
		Variance:        post.Variance(),
		Sampled:         sampled,
		SampledPositive: positives,
	}
}

// TotalSize sums tₐ over the groups.
func TotalSize(groups []GroupInfo) int {
	total := 0
	for _, g := range groups {
		total += g.Size
	}
	return total
}

// ExpectedCorrect returns Σ tₐ·sₐ, the expected number of correct tuples.
func ExpectedCorrect(groups []GroupInfo) float64 {
	total := 0.0
	for _, g := range groups {
		total += float64(g.Size) * g.Selectivity
	}
	return total
}

// Strategy is a probabilistic execution strategy: per group, the
// probability R of retrieving each tuple and the probability E of
// retrieving and evaluating it (so the conditional evaluation probability
// given retrieval is E/R). Invariant: 0 ≤ E[i] ≤ R[i] ≤ 1.
type Strategy struct {
	R []float64
	E []float64
	// RecallCapped records that the planner hit the "retrieve everything"
	// ceiling: recall is then 1 deterministically even though the
	// margin-tightened linear constraint could not be met.
	RecallCapped bool
	// PrecisionCapped records that the planner hit the "evaluate everything
	// retrieved" ceiling: the output then contains only verified tuples
	// (plus none unverified), so precision is 1 deterministically.
	PrecisionCapped bool
}

// NewStrategy returns an all-zero (discard everything) strategy over n
// groups.
func NewStrategy(n int) Strategy {
	return Strategy{R: make([]float64, n), E: make([]float64, n)}
}

// Len returns the number of groups the strategy covers.
func (s Strategy) Len() int { return len(s.R) }

// Validate checks the 0 ≤ E ≤ R ≤ 1 invariant (with tolerance eps).
func (s Strategy) Validate() error {
	if len(s.R) != len(s.E) {
		return errors.New("core: strategy R/E length mismatch")
	}
	const eps = 1e-9
	for i := range s.R {
		if s.R[i] < -eps || s.R[i] > 1+eps {
			return fmt.Errorf("core: R[%d]=%v outside [0,1]", i, s.R[i])
		}
		if s.E[i] < -eps || s.E[i] > s.R[i]+eps {
			return fmt.Errorf("core: E[%d]=%v outside [0,R=%v]", i, s.E[i], s.R[i])
		}
	}
	return nil
}

// ExpectedCost returns the expected execution cost
// Σ wₐ·(o_r·Rₐ + o_e·Eₐ) over the not-yet-sampled tuples (wₐ = tₐ − Fₐ).
// Sampling costs already paid are not included; see SampleOutcome.Cost.
func (s Strategy) ExpectedCost(groups []GroupInfo, cost CostModel) float64 {
	total := 0.0
	for i, g := range groups {
		w := float64(g.Remaining())
		total += w * (cost.Retrieve*s.R[i] + cost.Evaluate*s.E[i])
	}
	return total
}

// FullEvaluation returns the exact-query strategy (retrieve and evaluate
// everything), which satisfies any constraints deterministically.
func FullEvaluation(n int) Strategy {
	s := NewStrategy(n)
	for i := range s.R {
		s.R[i], s.E[i] = 1, 1
	}
	s.RecallCapped, s.PrecisionCapped = true, true
	return s
}

// Clone returns a deep copy of the strategy.
func (s Strategy) Clone() Strategy {
	out := Strategy{
		R:               append([]float64(nil), s.R...),
		E:               append([]float64(nil), s.E...),
		RecallCapped:    s.RecallCapped,
		PrecisionCapped: s.PrecisionCapped,
	}
	return out
}

// clamp tidies tiny numerical violations after solver arithmetic.
func (s *Strategy) clamp() {
	for i := range s.R {
		s.R[i] = stats.Clamp01(s.R[i])
		if s.E[i] < 0 {
			s.E[i] = 0
		}
		if s.E[i] > s.R[i] {
			s.E[i] = s.R[i]
		}
	}
}

// UDF is the expensive predicate f: given a tuple's row id it reports
// whether the tuple satisfies the predicate. Implementations are expected
// to be deterministic per row within one query execution.
//
// A row id is the tuple's position in its table: non-negative and dense in
// [0, NumRows). Meter and SharedEvalCache index their state by it.
type UDF interface {
	Eval(row int) bool
}

// UDFFunc adapts a function to the UDF interface.
type UDFFunc func(row int) bool

// Eval implements UDF.
func (f UDFFunc) Eval(row int) bool { return f(row) }

// EvalCache is a store of already-paid-for UDF outcomes shared across
// queries (the engine keeps one per (table, UDF, column, want) key).
// Implementations must be safe for concurrent use.
type EvalCache interface {
	// Lookup reports a cached outcome for the row, if one exists.
	Lookup(row int) (bool, bool)
	// Store records the row's outcome.
	Store(row int, v bool)
}

// SharedEvalCache is the standard EvalCache: dense row states (see
// rowStates) read and written with atomic operations only, safe for
// concurrent queries. Row ids must be non-negative; memory is as for Meter.
type SharedEvalCache struct {
	rows rowStates
	n    atomic.Int64 // rows holding an outcome
}

// NewSharedEvalCache returns an empty cache.
func NewSharedEvalCache() *SharedEvalCache {
	c := &SharedEvalCache{}
	c.rows.init()
	return c
}

// Lookup implements EvalCache.
func (c *SharedEvalCache) Lookup(row int) (bool, bool) {
	st := c.rows.peek(row)
	return st == rowTrue, st != rowUnknown
}

// Store implements EvalCache.
func (c *SharedEvalCache) Store(row int, v bool) {
	if c.store(row, v) {
		c.n.Add(1)
	}
}

// store records the outcome and reports whether the row had none before.
func (c *SharedEvalCache) store(row int, v bool) bool {
	sl, to := c.rows.slot(row), verdictState(v)
	for {
		cur := sl.load()
		if cur == to || sl.cas(cur, to) {
			return cur == rowUnknown
		}
	}
}

// Len reports how many rows have cached outcomes.
func (c *SharedEvalCache) Len() int { return int(c.n.Load()) }

// Preload bulk-loads outcomes (e.g. restored from a durable catalog).
func (c *SharedEvalCache) Preload(m map[int]bool) {
	added := 0
	for row, v := range m {
		if c.store(row, v) {
			added++
		}
	}
	c.n.Add(int64(added))
}

// Snapshot copies the current outcomes (e.g. for persisting).
func (c *SharedEvalCache) Snapshot() map[int]bool {
	out := make(map[int]bool, c.Len())
	c.rows.each(func(row int, st uint32) { out[row] = st == rowTrue })
	return out
}

// Meter is the one point a UDF is evaluated through: it counts charged
// invocations and memoizes results so repeated evaluations of the same tuple
// (e.g. sampled during estimation and touched again at execution) are charged
// once, matching the paper's accounting, and it is the one record of which
// rows failed (see resilient.go).
//
// Meter is safe for concurrent use: parallel batch evaluation may hit the
// same row from several goroutines, and single-flight de-duplication
// guarantees the underlying UDF runs (and is charged) at most once per row,
// keeping Calls deterministic at any parallelism level. An optional shared
// EvalCache supplies outcomes already paid for by earlier queries; hits are
// NOT charged to this meter.
//
// The memo is dense (see rowStates): half a byte per row, in 2 KiB pages of
// 4096 rows allocated when first touched, plus 8 directory bytes per page
// up to the largest row id seen — so a sparse id near 2^30 costs a 2 MiB
// directory on top of its page. A negative row id panics.
type Meter struct {
	// body evaluates a claimed row; its failures are memoized as
	// failed-final, never charged, never cached, and settled once in the
	// ledger. gate, when non-nil, is the circuit breaker EvalRows consults.
	body   FallibleUDF
	gate   exec.Gate
	shared EvalCache // may be nil
	ledger failureLedger

	rows rowStates

	// counts holds the per-row counters, striped by 128-row block (see
	// meterStripe); the pad keeps the first stripe off the read-mostly
	// fields above.
	_      [stripeBytes]byte
	counts [meterStripes]meterStripe
}

// meterStripes is how many cache-line stripes a meter's counters are
// spread over. A row's block (row / 128, the rows of one cache line of row
// state) picks its stripe, so workers on different blocks charge different
// lines, and no charge invalidates the line of read-mostly fields every
// worker loads per row.
const (
	meterStripes = 8
	stripeBytes  = 128 // a cache line, doubled for the adjacent-line prefetcher
)

// meterStripe is one stripe of a meter's counters: charged calls, and
// shared-cache lookups that hit or missed (zero when the meter has no
// shared cache). Single-flight guarantees at most one charge and one
// lookup per row, so every sum is deterministic at any parallelism level.
type meterStripe struct {
	calls, cacheHits, cacheMisses atomic.Int64
	_                             [stripeBytes - 24]byte
}

// stripe returns the counters row charges.
func (m *Meter) stripe(row int) *meterStripe {
	return &m.counts[row/lineRows%meterStripes]
}

// totals sums the counters over every stripe.
func (m *Meter) totals() (calls, cacheHits, cacheMisses int) {
	for i := range m.counts {
		s := &m.counts[i]
		calls += int(s.calls.Load())
		cacheHits += int(s.cacheHits.Load())
		cacheMisses += int(s.cacheMisses.Load())
	}
	return calls, cacheHits, cacheMisses
}

// NewMeter wraps udf with call counting and memoization.
func NewMeter(udf UDF) *Meter { return NewCachedMeter(udf, nil) }

// NewCachedMeter is NewMeter backed by a cross-query outcome cache: rows
// found in cache are served without invoking (or charging for) the UDF, and
// newly computed outcomes are written back for future queries.
func NewCachedMeter(udf UDF, cache EvalCache) *Meter {
	// The never-failing adapter is allocated with the meter, so a plain
	// meter costs no more allocations than a resilient one.
	m := &struct {
		Meter
		adapter infallible
	}{adapter: infallible{udf}}
	return m.init(&m.adapter, cache, nil)
}

func (m *Meter) init(body FallibleUDF, cache EvalCache, gate exec.Gate) *Meter {
	m.body, m.shared, m.gate = body, cache, gate
	m.rows.init()
	return m
}

// Eval implements UDF, charging only the first evaluation per row. A row
// whose evaluation failed for good reports false (the ledger holds the
// failure); batch paths use EvalRows, which reports per-row failures and
// honors cancellation.
func (m *Meter) Eval(row int) bool {
	v, _ := m.evalFallible(context.Background(), row)
	return v
}

// claim is the single-flight entry shared by every evaluation path. It
// returns the row's slot and state. rowInFlight means the caller now owns
// the row and must release it — with the verdict, or through fail or
// forget. Any other state is the row's settled outcome: memoized (after
// waiting out an in-flight owner, and retrying when that owner forgot the
// row) or just served by the shared cache. Only an owner asks the cache,
// and a forgotten row comes back as rowMissed, so the cache sees at most
// one lookup per row.
func (m *Meter) claim(row int) (slot, uint32) {
	sl := m.rows.slot(row)
	for {
		switch st := sl.load(); st {
		case rowUnknown, rowMissed:
			if !sl.cas(st, rowInFlight) {
				continue
			}
			if m.shared != nil && st == rowUnknown {
				if v, ok := m.shared.Lookup(row); ok {
					m.stripe(row).cacheHits.Add(1)
					m.rows.release(sl, verdictState(v))
					return sl, verdictState(v)
				}
				m.stripe(row).cacheMisses.Add(1)
			}
			return sl, rowInFlight
		case rowInFlight:
			m.rows.await(sl)
		default:
			return sl, st
		}
	}
}

// forget abandons a claimed row whose evaluation never produced an outcome
// (the body panicked, or the batch was cancelled): a retry must
// re-evaluate, never inherit a verdict, so the row goes back to unclaimed —
// as rowMissed, because its one shared-cache lookup is spent.
func (m *Meter) forget(sl slot) { m.rows.release(sl, rowMissed) }

// fail settles a claimed row as failed-final: recorded once in the ledger
// (before any waiter can see the row settled), memoized for the meter's
// lifetime, never charged, never cached.
func (m *Meter) fail(row int, sl slot, err error) {
	m.ledger.record(row, err)
	m.rows.release(sl, rowFailed)
}

// Calls returns the number of distinct UDF invocations charged so far.
func (m *Meter) Calls() int { calls, _, _ := m.totals(); return calls }

// CacheHits returns how many rows the shared cross-query cache served
// without charging an evaluation (always 0 without a shared cache).
func (m *Meter) CacheHits() int { _, hits, _ := m.totals(); return hits }

// CacheMisses returns how many shared-cache lookups fell through to a
// charged UDF invocation (always 0 without a shared cache).
func (m *Meter) CacheMisses() int { _, _, misses := m.totals(); return misses }

// Known reports whether row's value is already memoized (and what it is).
// Rows in flight on another goroutine and rows that failed for good have
// no value: both report unknown.
func (m *Meter) Known(row int) (bool, bool) {
	st := m.rows.peek(row)
	return st == rowTrue, st == rowTrue || st == rowFalse
}

// Group binds a group key to the row ids of its tuples. It is the table
// package's partition group, so a partition feeds the optimizer as is.
type Group = table.Group

// feasEps is the relative tolerance almostGE allows when verifying planner
// output against its own constraints.
const feasEps = 1e-6

// almostGE reports a ≥ b within feasEps scaled by the magnitude of b.
func almostGE(a, b float64) bool {
	scale := math.Abs(b)
	if scale < 1 {
		scale = 1
	}
	return a >= b-feasEps*scale
}
