package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/exec"
	"repro/internal/stats"
)

// Generalized conjunctions: N expensive predicates ANDed together. This
// file holds what every conjunction shape — the paper's five-action plan
// for exactly two predicates (Section 5, twopred.go) and the N-ary waves —
// is built on, including the one evaluator every execution shape runs
// through:
//
//   - SampleConjunctionParallelCtx — joint sampling of all N predicates
//     over a few rows per group (sampling never short-circuits: joint
//     statistics need every outcome);
//   - OrderPredicates — the classic greedy cheapest-first ordering by
//     cost/(1−selectivity), using the sampled selectivity estimates;
//   - Waves — short-circuit evaluation: each row passes a range of
//     predicates, and each wave evaluates only the rows the earlier waves
//     kept. Exact scans, the probabilistic executor (executor.go), the
//     five actions and the N-ary waves all execute through it.
//
// Everything is plan/evaluate split like the rest of the package: row
// selection and ordering are sequential, UDF calls fan out across workers,
// and outcomes merge back in plan order — so for a fixed seed the results
// are bit-for-bit identical at every parallelism level.

// ConjSample records, for one group, the sampled rows' outcomes under every
// predicate.
type ConjSample struct {
	// Results maps sampled row → per-predicate outcomes (indexed like the
	// meters slice passed to SampleConjunctionParallelCtx).
	Results map[int][]bool
	// Pos counts rows passing each predicate; PosAll counts rows passing
	// all of them.
	Pos    []int
	PosAll int
}

// SampleConjunctionParallelCtx evaluates every predicate on targets[i]
// random tuples of each group. It returns the per-group samples plus
// pooled per-predicate selectivity estimates (Beta-posterior means over
// all sampled rows) for greedy ordering. The sample rows are drawn from the
// RNG up front, so the sampled sets are identical at any parallelism
// level; a cancel returns ctx.Err() with no partial samples.
func SampleConjunctionParallelCtx(ctx context.Context, groups []Group, targets []int, meters []*Meter, rng *stats.RNG, parallelism int) ([]ConjSample, []float64, error) {
	if len(targets) != len(groups) {
		return nil, nil, fmt.Errorf("core: %d targets for %d groups", len(targets), len(groups))
	}
	if len(meters) == 0 {
		return nil, nil, fmt.Errorf("core: conjunction without predicates")
	}
	samples := make([]ConjSample, len(groups))
	// Plan: draw every group's sample rows in order.
	var work, groupOf []int
	for i, g := range groups {
		samples[i] = ConjSample{Results: make(map[int][]bool), Pos: make([]int, len(meters))}
		want := targets[i]
		if want > len(g.Rows) {
			want = len(g.Rows)
		}
		for _, idx := range rng.SampleWithoutReplacement(len(g.Rows), want) {
			work = append(work, g.Rows[idx])
			groupOf = append(groupOf, i)
		}
	}
	// Evaluate every predicate over every sampled row, one EvalRows batch
	// per predicate in predicate order — a circuit breaker needs sequential
	// fold points. A row with a failed predicate is dropped from the sample
	// entirely: joint statistics need every outcome of a row, so a partial
	// row is no evidence. A cancel returns ctx.Err(), also with no rows.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	pool := exec.NewPool(parallelism)
	verdicts := make([][]bool, len(meters))
	failedAny := make([]bool, len(work))
	for j, m := range meters {
		v, failed, err := m.EvalRows(ctx, pool, work)
		if err != nil {
			return nil, nil, err
		}
		verdicts[j] = v
		for k, f := range failed {
			failedAny[k] = failedAny[k] || f
		}
	}
	kept := 0
	for k, row := range work {
		if failedAny[k] {
			continue
		}
		kept++
		i := groupOf[k]
		outs := make([]bool, len(meters))
		all := true
		for j := range meters {
			outs[j] = verdicts[j][k]
			if outs[j] {
				samples[i].Pos[j]++
			} else {
				all = false
			}
		}
		samples[i].Results[row] = outs
		if all {
			samples[i].PosAll++
		}
	}
	sels := make([]float64, len(meters))
	for j := range meters {
		pos := 0
		for i := range samples {
			pos += samples[i].Pos[j]
		}
		sels[j] = stats.NewBetaPosterior(pos, kept-pos).Mean()
	}
	return samples, sels, nil
}

// OrderPredicates returns the greedy cheapest-first evaluation order for a
// conjunction: ascending by the classic rank cost/(1−selectivity) — the
// expected price a predicate pays per row it eliminates — with ties broken
// by original position. A predicate that (by its sample) rejects nothing
// ranks last: evaluating it early could never short-circuit anything.
func OrderPredicates(costs, sels []float64) ([]int, error) {
	if len(costs) != len(sels) {
		return nil, fmt.Errorf("core: %d costs for %d selectivities", len(costs), len(sels))
	}
	rank := make([]float64, len(costs))
	for i := range costs {
		reject := 1 - sels[i]
		if reject <= 0 {
			rank[i] = math.Inf(1)
			continue
		}
		rank[i] = costs[i] / reject
	}
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rank[order[a]] < rank[order[b]] })
	return order, nil
}

// Span is the contiguous range [From, To) of wave positions a row must
// still pass. An empty span (From == To) passes without evaluation. The
// positions are int32 so a plan phase's per-row spans stay half the size.
type Span struct{ From, To int32 }

func (s Span) covers(j int) bool { return int(s.From) <= j && j < int(s.To) }

// Waves is the one short-circuit evaluator every execution shape shares:
// the exact scan (one wave), the probabilistic executor (one wave, coins
// decide each row's span), the §5 five-action executor (two waves) and the
// N-ary conjunction waves. Wave j runs Meters[j] as one Meter.EvalRows
// batch over the live rows whose span covers j, in row order, so a row is
// checked against a predicate only after it passed every earlier one it
// needs, and breaker fold points are sequential. A false or failed verdict
// drops the row.
//
// Batching does not change any outcome: rows never interact across Run
// calls, so splitting the input into disjoint batches yields the same
// calls, verdicts and survivors as one monolithic run; only the segments a
// breaker folds move. Not safe for concurrent Run calls; parallelism lives
// inside a wave's pool fan-out.
type Waves struct {
	Meters []*Meter
	Pool   *exec.Pool
	// Evaluated[j] counts the rows wave j evaluated, summed over Run calls.
	Evaluated []int

	// Scratch reused across Run calls: a wave's work list, and the live
	// rows with their spans.
	work, live []int
	spans      []Span
}

// Run pushes rows through the waves; need[i] is the span row i must pass,
// and a nil need means every wave for every row. It returns the survivors
// in input order — nil when none survive — valid until the next Run call.
// A cancel returns ctx.Err() and no survivors, also when no wave has work.
func (w *Waves) Run(ctx context.Context, rows []int, need []Span) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(w.Evaluated) != len(w.Meters) {
		w.Evaluated = make([]int, len(w.Meters))
	}
	if cap(w.live) < len(rows) {
		w.live = make([]int, 0, len(rows))
	}
	if need != nil && len(w.Meters) > 1 && cap(w.spans) < len(rows) {
		w.spans = make([]Span, 0, len(rows))
	}
	live, spans := rows, need
	for j, m := range w.Meters {
		work := live
		if spans != nil {
			work = w.work[:0]
			for k, row := range live {
				if spans[k].covers(j) {
					work = append(work, row)
				}
			}
			w.work = work
		}
		if len(work) == 0 {
			continue
		}
		verdicts, _, err := m.EvalRows(ctx, w.Pool, work)
		if err != nil {
			return nil, err
		}
		w.Evaluated[j] += len(work)
		// Compact the survivors into scratch (in place from the second
		// evaluated wave on), and their spans while a wave follows. A
		// failed evaluation carries verdict false.
		moreWaves := spans != nil && j+1 < len(w.Meters)
		keep, keepSpans, v := w.live[:0], w.spans[:0], 0
		for k, row := range live {
			if spans == nil || spans[k].covers(j) {
				v++
				if !verdicts[v-1] {
					continue
				}
			}
			keep = append(keep, row)
			if moreWaves {
				keepSpans = append(keepSpans, spans[k])
			}
		}
		live = keep
		if moreWaves {
			spans = keepSpans
		}
	}
	if len(live) == 0 {
		return nil, nil
	}
	return live, nil
}
