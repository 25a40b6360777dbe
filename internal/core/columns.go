package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/stats"
)

// This file implements Section 4.4: finding a correlated column. A small
// fraction of tuples is labeled (UDF-evaluated); every candidate column
// with few enough distinct values is scored by estimating its per-group
// selectivities from the labeled tuples and planning with the Section 3.2
// optimizer; the cheapest plan wins. The labels are one Sampler's draw
// over the universe, topped up to label more. They choose the grouping and
// are not evidence about it: the groups' selectivities are estimated only
// from the sampler's uniform draw, made after the grouping is fixed (a
// label the draw picks again is served from the meter's memo, not paid
// twice).

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

// DefaultLabelFraction is the fraction of tuples the engine labels to
// discover a correlated column or train the virtual one (the paper's 1%).
const DefaultLabelFraction = 0.01

// LabelTarget is how many rows labeling a fraction of n rows draws.
func LabelTarget(fraction float64, n int) int { return int(math.Ceil(fraction * float64(n))) }

// LabelFractionParallelCtx labels a uniform random fraction of rows for
// SelectColumn: one top-up of a one-group sampler keyed by rng's next draw,
// so the labels at fraction f nest in those at any larger one. Calls fan
// out across up to `parallelism` workers (≤ 0 means GOMAXPROCS), and a
// failed row is no label. A cancel returns (nil, ctx.Err()).
func LabelFractionParallelCtx(ctx context.Context, rows []int, fraction float64, meter *Meter, rng *stats.RNG, parallelism int) (map[int]bool, error) {
	s := NewSampler([]Group{{Key: "all", Rows: rows}}, meter, rng)
	s.SetParallelism(parallelism)
	if _, err := s.TopUpCtx(ctx, []int{LabelTarget(fraction, len(rows))}); err != nil {
		return nil, err
	}
	return s.Outcomes()[0].Results, nil
}
