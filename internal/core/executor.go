package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/exec"
	"repro/internal/stats"
)

// This file implements query execution (the "Execution" step of
// Sections 3.2/3.3): given a strategy, flip a coin per tuple to decide
// retrieval, then another to decide evaluation; retrieved-but-unevaluated
// tuples are returned as-is, evaluated tuples are returned only when every
// predicate of their span accepts them. Tuples already evaluated during
// sampling are returned (or dropped) according to their known outcome at
// no extra cost. It is the one executor: §5's five per-group actions are
// strategies whose coins land at 0 or 1 (TwoPredStrategy).
//
// A tuple's coins are keyed by its row (stats.Key.Bernoulli): Bernoulli(R)
// to retrieve and Bernoulli(E/R) to evaluate, under two sub-keys of the
// execution key. A PLAN phase flips them in tuple order and emits each
// returned candidate with the predicate span it still needs (a bitset of
// the sampled rows spares each row a map probe), then a parallel EVALUATE
// phase runs them through one Waves run, and an ORDER walk over a bitset
// of the survivors returns the answer ascending — the one place an
// answer is ordered — so the output is bit-for-bit identical at every
// parallelism level and whatever order the groups list their rows in.

// SampleOutcome records the sampling phase's work for one group.
type SampleOutcome struct {
	// Results maps sampled row id → whether it passed every predicate.
	Results map[int]bool
	// Positives counts rows passing every predicate (F⁺ₐ); Pos[j] counts
	// rows passing predicate j.
	Positives int
	Pos       []int
}

// ExecResult is the outcome of executing a strategy.
type ExecResult struct {
	// Output holds the returned row ids (the approximate query answer),
	// ascending, each once.
	Output []int
	// Retrieved counts tuples fetched during execution (excluding sampling).
	Retrieved int
	// Evaluated counts UDF calls made during execution (excluding
	// sampling), summed over the predicates.
	Evaluated int
	// Cost is the execution cost o_r·Retrieved + o_e·Evaluated.
	Cost float64
}

// ExecuteParallelCtx runs the strategy over the groups with one predicate:
// ExecuteSpansParallelCtx with the one meter, keyed by rng's next draw, on
// a pool of up to `parallelism` workers (≤ 0 means GOMAXPROCS) that it
// builds and closes.
func ExecuteParallelCtx(ctx context.Context, groups []Group, s Strategy, samples []SampleOutcome, meter *Meter, cost CostModel, rng *stats.RNG, parallelism int) (ExecResult, error) {
	pool := exec.NewPool(parallelism)
	defer pool.Close()
	return ExecuteSpansParallelCtx(ctx, groups, s, nil, samples, []*Meter{meter}, cost, stats.Key(rng.Uint64()), pool)
}

// ExecuteSpansParallelCtx runs the strategy over the groups, fanning UDF
// calls across the caller's pool. A row
// of group i that is retrieved and evaluated must pass the meters of
// spans[i], in order, short-circuiting at the first that rejects it; nil
// spans mean every meter for every group. samples may be nil (no sampling
// phase) or hold one entry per group; sampled rows are not re-retrieved or
// re-evaluated — their recorded outcome decides membership. key keys the
// per-tuple coins, so results are identical at every parallelism level and
// whatever order the groups come in; a cancel returns ctx.Err() and an
// empty result.
func ExecuteSpansParallelCtx(ctx context.Context, groups []Group, s Strategy, spans []Span, samples []SampleOutcome, meters []*Meter, cost CostModel, key stats.Key, pool *exec.Pool) (ExecResult, error) {
	if len(groups) != s.Len() {
		return ExecResult{}, fmt.Errorf("core: %d groups but strategy covers %d", len(groups), s.Len())
	}
	if samples != nil && len(samples) != len(groups) {
		return ExecResult{}, fmt.Errorf("core: %d groups but %d sample outcomes", len(groups), len(samples))
	}
	if spans != nil && len(spans) != len(groups) {
		return ExecResult{}, fmt.Errorf("core: %d groups but %d spans", len(groups), len(spans))
	}
	for i, sp := range spans {
		if sp.From < 0 || sp.From > sp.To || int(sp.To) > len(meters) {
			return ExecResult{}, fmt.Errorf("core: span [%d,%d) of group %d outside %d predicates", sp.From, sp.To, i, len(meters))
		}
	}
	if err := s.Validate(); err != nil {
		return ExecResult{}, err
	}
	var res ExecResult

	// Plan: flip retrieval/evaluation coins for every tuple in order. A
	// retrieved tuple needs its group's span when its evaluation coin
	// lands, and nothing (an empty span) otherwise. Every sampled row is
	// marked in one bitset first, so a row pays a bit test and only a
	// sampled row reads its verdict from its group's map. A group with
	// R > 0 adds at most its rows to the candidates and a discarded group
	// at most its sampled rows, so the buffers are sized once, to what can
	// be retrieved.
	retrieve, evaluate := key.Sub(1), key.Sub(2)
	total, hi := 0, -1
	for i, g := range groups {
		if s.R[i] > 0 {
			total += len(g.Rows)
		} else if samples != nil {
			total += len(samples[i].Results)
		}
	}
	for _, so := range samples {
		for row := range so.Results {
			hi = max(hi, row)
		}
	}
	seen := make(rowBits, words(hi))
	for _, so := range samples {
		for row := range so.Results {
			seen.set(row)
		}
	}
	rows, need := make([]int, 0, total), make([]Span, 0, total)
	for i, g := range groups {
		ra, ea := s.R[i], s.E[i]
		span := Span{To: int32(len(meters))}
		if spans != nil {
			span = spans[i]
		}
		var sampled map[int]bool
		if samples != nil {
			sampled = samples[i].Results
		}
		condEval := 0.0
		if ra > 0 {
			condEval = ea / ra
		}
		for _, row := range g.Rows {
			if seen.has(row) {
				if v, ok := sampled[row]; ok {
					// Already paid for during sampling; include iff correct.
					if v {
						rows, need = append(rows, row), append(need, Span{})
					}
					continue
				}
			}
			if !retrieve.Bernoulli(row, ra) {
				continue
			}
			res.Retrieved++
			sp := Span{}
			if evaluate.Bernoulli(row, condEval) {
				sp = span
			}
			rows, need = append(rows, row), append(need, sp)
		}
	}

	// Evaluate: the waves fan the expensive calls out and keep the plan
	// order; a failed evaluation drops its row like a false verdict.
	w := Waves{Meters: meters, Pool: pool}
	out, err := w.Run(ctx, rows, need)
	if err != nil {
		return ExecResult{}, err
	}
	// Order: the survivors live in scratch sized to every candidate; mark
	// them in the sampled rows' bitset, cleared and grown to the largest
	// survivor, and walk it, so the answer holds its own rows ascending.
	if len(out) > 0 {
		n := words(slices.Max(out))
		seen = slices.Grow(seen[:0], n)[:n]
		clear(seen)
		for _, row := range out {
			seen.set(row)
		}
		res.Output = seen.appendRows(make([]int, 0, len(out)))
	}
	for _, n := range w.Evaluated {
		res.Evaluated += n
	}
	res.Cost = cost.Retrieve*float64(res.Retrieved) + cost.Evaluate*float64(res.Evaluated)
	return res, nil
}

// Metrics holds the information-retrieval quality of an output set.
type Metrics struct {
	Precision float64
	Recall    float64
	// OutputSize and TotalCorrect echo the denominators for reporting.
	OutputSize   int
	TotalCorrect int
}

// Satisfies reports whether the metrics meet the constraints. An empty
// output has precision 1 by convention (it contains no incorrect tuples).
func (m Metrics) Satisfies(cons Constraints) (precisionOK, recallOK bool) {
	return m.Precision >= cons.Alpha-1e-12, m.Recall >= cons.Beta-1e-12
}

// ComputeMetrics scores an output set against ground truth. truth must be
// the oracle predicate (uncharged); totalCorrect is |C|, the number of
// correct tuples in the whole relation.
func ComputeMetrics(output []int, truth func(row int) bool, totalCorrect int) Metrics {
	correct := 0
	for _, row := range output {
		if truth(row) {
			correct++
		}
	}
	m := Metrics{OutputSize: len(output), TotalCorrect: totalCorrect}
	if len(output) == 0 {
		m.Precision = 1
	} else {
		m.Precision = float64(correct) / float64(len(output))
	}
	if totalCorrect == 0 {
		m.Recall = 1
	} else {
		m.Recall = float64(correct) / float64(totalCorrect)
	}
	return m
}

// rowBits is a bitset over non-negative row ids, sized by its maker.
type rowBits []uint64

// words is the length of a rowBits that holds every row up to hi.
func words(hi int) int { return (hi + 64) >> 6 }

func (b rowBits) set(row int) { b[row>>6] |= 1 << (row & 63) }

func (b rowBits) has(row int) bool {
	w := uint(row) >> 6
	return w < uint(len(b)) && b[w]&(1<<(row&63)) != 0
}

// appendRows appends the set rows to dst in ascending order.
func (b rowBits) appendRows(dst []int) []int {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, w<<6|bits.TrailingZeros64(word))
		}
	}
	return dst
}
