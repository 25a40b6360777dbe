package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/exec"
)

// This file implements Section 4.4: finding a correlated column. A small
// fraction of tuples is labeled (UDF-evaluated); every candidate column
// with few enough distinct values is scored by estimating its per-group
// selectivities from the labeled tuples and planning with the Section 3.2
// optimizer; the cheapest plan wins. The labeled tuples are reusable both
// for later selectivity estimation and as part of the output.

// Candidate is one column (real or virtual) under consideration, given as
// its induced partition of the relation's rows.
type Candidate struct {
	Name   string
	Groups []Group
}

// ColumnChoice reports the outcome of SelectColumn.
type ColumnChoice struct {
	// Index into the candidates slice; -1 if no candidate qualified.
	Index int
	// Name echoes the winning candidate's name.
	Name string
	// EstimatedCost per candidate (math.Inf(1) for disqualified ones),
	// aligned with the input slice.
	EstimatedCost []float64
}

// SelectColumn picks the candidate column whose estimated query cost is
// lowest. labeled maps row id → UDF outcome for the pre-labeled sample
// (typically ~1% of rows). Candidates with more than √|labeled| distinct
// values are disqualified to avoid overfitting the selectivity estimates —
// the paper's rule; if every candidate is disqualified the caller should
// label more rows and retry.
func SelectColumn(cands []Candidate, labeled map[int]bool, cons Constraints, cost CostModel) (ColumnChoice, error) {
	if len(cands) == 0 {
		return ColumnChoice{}, fmt.Errorf("core: no candidate columns")
	}
	if len(labeled) == 0 {
		return ColumnChoice{}, fmt.Errorf("core: no labeled tuples")
	}
	maxGroups := math.Sqrt(float64(len(labeled)))
	choice := ColumnChoice{Index: -1, EstimatedCost: make([]float64, len(cands))}
	best := math.Inf(1)
	for ci, cand := range cands {
		choice.EstimatedCost[ci] = math.Inf(1)
		if float64(len(cand.Groups)) > maxGroups || len(cand.Groups) == 0 {
			continue
		}
		infos := make([]GroupInfo, len(cand.Groups))
		for gi, g := range cand.Groups {
			pos, tot := 0, 0
			for _, row := range g.Rows {
				if v, ok := labeled[row]; ok {
					tot++
					if v {
						pos++
					}
				}
			}
			info := GroupInfoFromSample(len(g.Rows), tot, pos)
			// Scoring uses the Section 3.2 planner with the point estimate,
			// per the paper; clear the sampling bookkeeping so the cost
			// reflects the whole group.
			infos[gi] = GroupInfo{Size: info.Size, Selectivity: info.Selectivity}
		}
		strat, err := PlanPerfectSelectivities(infos, cons, cost)
		if err != nil {
			return ColumnChoice{}, fmt.Errorf("core: scoring column %q: %w", cand.Name, err)
		}
		c := strat.ExpectedCost(infos, cost)
		choice.EstimatedCost[ci] = c
		if c < best {
			best = c
			choice.Index = ci
			choice.Name = cand.Name
		}
	}
	if choice.Index < 0 {
		return choice, fmt.Errorf("core: no candidate has ≤ %.0f distinct values; label more tuples", maxGroups)
	}
	return choice, nil
}

// Labeler is the random source LabelFractionParallelCtx needs to pick rows.
type Labeler interface {
	SampleWithoutReplacement(n, k int) []int
}

// LabelFractionParallelCtx evaluates the UDF on a uniform random fraction
// of all rows and returns the labels, for use with SelectColumn. The UDF
// calls are charged to the meter and fanned across up to `parallelism`
// workers (≤ 0 means GOMAXPROCS). The sample is drawn from the RNG before any
// evaluation starts, so the labeled set — and the RNG stream seen by later
// phases — is identical at any parallelism level. A cancel mid-labeling
// returns (nil, ctx.Err()) without handing back a partial label map.
func LabelFractionParallelCtx(ctx context.Context, rows []int, fraction float64, meter *Meter, rng Labeler, parallelism int) (map[int]bool, error) {
	k := int(math.Ceil(fraction * float64(len(rows))))
	picks := rng.SampleWithoutReplacement(len(rows), k)
	work := make([]int, len(picks))
	for j, i := range picks {
		work[j] = rows[i]
	}
	verdicts, failed, err := meter.EvalRows(ctx, exec.NewPool(parallelism), work)
	if err != nil {
		return nil, err
	}
	labeled := make(map[int]bool, len(work))
	for j, row := range work {
		if failed[j] {
			// A failed evaluation is no label: excluding the row keeps the
			// discovery evidence honest under a flaky UDF.
			continue
		}
		labeled[row] = verdicts[j]
	}
	return labeled, nil
}
