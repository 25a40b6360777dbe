package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/exec"
)

// Generalized conjunctions: N expensive predicates ANDed together. This
// file holds what every conjunction shape — the paper's five-action plan
// for exactly two predicates (Section 5, twopred.go) and the N-ary waves —
// is built on, beside the one Sampler (sampling.go, which evaluates every
// predicate on a sampled row: joint statistics need every outcome) and the
// one coin executor (executor.go):
//
//   - OrderPredicates — the classic greedy cheapest-first ordering by
//     cost/(1−selectivity), using the sampler's pooled selectivities;
//   - Waves — short-circuit evaluation: each row passes a range of
//     predicates, and each wave evaluates only the rows the earlier waves
//     kept. Exact scans, the coin executor (single-predicate strategies and
//     the five actions alike) and the N-ary waves all execute through it.
//
// Everything is plan/evaluate split like the rest of the package: row
// selection and ordering are sequential, UDF calls fan out across workers,
// and outcomes merge back in plan order — so for a fixed seed the results
// are bit-for-bit identical at every parallelism level.

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
// the exact scan (one wave), the coin executor (one wave per predicate,
// coins decide each row's span — two waves for the §5 actions) and the
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
	if need != nil && cap(w.work) < len(rows) {
		w.work = make([]int, 0, len(rows))
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
