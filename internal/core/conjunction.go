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
// file is the joint-evaluation substrate every conjunction shape shares —
// the paper's five-action plan for exactly two predicates (Section 5,
// twopred.go) and the N-ary waves alike:
//
//   - evalWorkLists — per-predicate work-lists, one Meter.EvalRows batch
//     per predicate;
//   - SampleConjunctionParallelCtx — joint sampling of all N predicates
//     over a few rows per group (sampling never short-circuits: joint
//     statistics need every outcome);
//   - OrderPredicates — the classic greedy cheapest-first ordering by
//     cost/(1−selectivity), using the sampled selectivity estimates;
//   - ConjWaveRunner — short-circuit waves over the ordered predicates,
//     where each wave evaluates only the survivors of the previous one and
//     rows resolved during sampling are free.
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

// evalWorkLists evaluates works[j] through meters[j] for every predicate j
// and returns the per-list verdicts and failure flags. Each list is one
// EvalRows batch and the lists run in predicate order — a circuit breaker
// needs sequential fold points — so outcomes are identical at any
// parallelism. A cancel returns ctx.Err() with nothing else, also when every
// list is empty.
func evalWorkLists(ctx context.Context, pool *exec.Pool, works [][]int, meters []*Meter) (verdicts, failed [][]bool, err error) {
	// Empty batches never check ctx; non-empty ones check it per item.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	verdicts = make([][]bool, len(meters))
	failed = make([][]bool, len(meters))
	for j, m := range meters {
		verdicts[j], failed[j], err = m.EvalRows(ctx, pool, works[j])
		if err != nil {
			return nil, nil, err
		}
	}
	return verdicts, failed, nil
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
	// Evaluate every predicate over every sampled row. A row with a failed
	// predicate is dropped from the sample entirely: joint statistics need
	// every outcome of a row, so a partial row is no evidence.
	works := make([][]int, len(meters))
	for j := range works {
		works[j] = work
	}
	verdicts, failed, err := evalWorkLists(ctx, exec.NewPool(parallelism), works, meters)
	if err != nil {
		return nil, nil, err
	}
	failedAny := make([]bool, len(work))
	for _, fj := range failed {
		for k, f := range fj {
			if f {
				failedAny[k] = true
			}
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

// ConjWaveRunner executes short-circuit waves over row batches: each Run
// call pushes one batch of rows through every predicate (in the configured
// order) and returns the batch's survivors in input order plus how many of
// its rows had to be retrieved. Batching does not change any outcome: a wave
// evaluates a predicate on exactly the rows that survived the previous
// predicates, and rows never interact across waves, so splitting the input
// into disjoint batches yields the same calls, the same verdicts and the
// same survivors as one monolithic run — the engine's batch executor relies
// on this. Not safe for concurrent Run calls; parallelism lives inside a
// wave's pool fan-out.
type ConjWaveRunner struct {
	order  []int
	known  []map[int]bool
	meters []*Meter
	pool   *exec.Pool
}

// NewConjWaveRunner validates the predicate order and returns a runner.
// known[j], when non-nil, maps row → already-paid outcome of predicate j
// (e.g. from sampling): known rows are resolved without evaluation.
func NewConjWaveRunner(order []int, known []map[int]bool, meters []*Meter, parallelism int) (*ConjWaveRunner, error) {
	if len(order) != len(meters) {
		return nil, fmt.Errorf("core: order covers %d of %d predicates", len(order), len(meters))
	}
	if known != nil && len(known) != len(meters) {
		return nil, fmt.Errorf("core: %d known maps for %d predicates", len(known), len(meters))
	}
	seen := make([]bool, len(meters))
	for _, j := range order {
		if j < 0 || j >= len(meters) || seen[j] {
			return nil, fmt.Errorf("core: invalid predicate order %v", order)
		}
		seen[j] = true
	}
	return &ConjWaveRunner{order: order, known: known, meters: meters, pool: exec.NewPool(parallelism)}, nil
}

// Run pushes one batch of rows through the waves and returns its survivors
// in input order and how many of its rows were retrieved: a row counts once,
// when it first enters a wave's work list (a row resolved by known outcomes
// before its first unknown predicate is never fetched). Batches must be
// disjoint — no row may appear in two Run calls — for the retrieved counts
// to sum to the statement's. A cancel returns ctx.Err().
func (w *ConjWaveRunner) Run(ctx context.Context, rows []int) (survivors []int, retrieved int, err error) {
	// live holds the surviving rows' positions in rows, so fetched can mark
	// a row's first retrieval without a per-row map.
	live := make([]int, len(rows))
	for i := range live {
		live[i] = i
	}
	fetched := make([]bool, len(rows))
	for _, j := range w.order {
		var kn map[int]bool
		if w.known != nil {
			kn = w.known[j]
		}
		// Plan the wave: resolve known rows, emit slots for the rest so the
		// merge below rebuilds the survivor list in input order.
		type slot struct {
			pos     int // position in rows
			evalIdx int // -1: known pass, no evaluation needed
		}
		var slots []slot
		var work []int
		for _, pos := range live {
			if v, ok := kn[rows[pos]]; ok {
				if v {
					slots = append(slots, slot{pos: pos, evalIdx: -1})
				}
				continue
			}
			slots = append(slots, slot{pos: pos, evalIdx: len(work)})
			work = append(work, rows[pos])
			if !fetched[pos] {
				fetched[pos] = true
				retrieved++
			}
		}
		// Failed evaluations carry verdict false, so failed rows simply do
		// not survive the wave.
		verdicts, _, err := w.meters[j].EvalRows(ctx, w.pool, work)
		if err != nil {
			return nil, 0, err
		}
		next := live[:0]
		for _, sl := range slots {
			if sl.evalIdx < 0 || verdicts[sl.evalIdx] {
				next = append(next, sl.pos)
			}
		}
		live = next
	}
	survivors = make([]int, len(live))
	for i, pos := range live {
		survivors[i] = rows[pos]
	}
	return survivors, retrieved, nil
}
