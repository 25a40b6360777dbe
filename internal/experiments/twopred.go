package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// The Section 5 two-predicate extension, exercised on a synthetic
// moderation-style workload: compare our per-group joint planner against
// (a) evaluating both predicates everywhere and (b) exact short-circuit
// evaluation (f2 only on f1 survivors).

// TwoPredResult reports the extension study.
type TwoPredResult struct {
	PlannerCost      float64
	ShortCircuitCost float64
	EvalBothCost     float64
	Precision        float64
	Recall           float64
	// Tally is the joint planner's Sweep over the world.
	Tally Tally
}

func (t *TwoPredResult) String() string {
	rows := [][]string{
		{"joint planner", f0(t.PlannerCost), f2(t.Precision), f2(t.Recall)},
		{"exact short-circuit", f0(t.ShortCircuitCost), "1.00", "1.00"},
		{"exact eval-both", f0(t.EvalBothCost), "1.00", "1.00"},
	}
	return textTable([]string{"strategy", "cost", "precision", "recall"}, rows) +
		fmt.Sprintf("constraints satisfied in %.0f%% of runs\n", 100*float64(t.Tally.Met)/float64(len(t.Tally.Statements)))
}

func runTwoPred(ctx context.Context, r *Runner) (fmt.Stringer, error) {
	iters := r.iters(20)
	rng := r.rng(hash("twopred"))

	sizes := []int{3000, 3000, 3000, 3000}
	sel1 := []float64{0.9, 0.55, 0.05, 0.35}
	sel2 := []float64{0.95, 0.6, 0.3, 0.85}

	world := rng.Split()
	var l1, l2 []bool
	groups := make([]core.Group, len(sizes))
	for gi, size := range sizes {
		rows := make([]int, size)
		for k := range rows {
			rows[k] = len(l1)
			l1 = append(l1, world.Bernoulli(sel1[gi]))
			l2 = append(l2, world.Bernoulli(sel2[gi]))
		}
		groups[gi] = core.Group{Key: fmt.Sprintf("g%d", gi), Rows: rows}
	}
	// The world becomes a two-column table with two UDFs, so §5 is
	// measured through the engine's conj-sample → conj-solve → conj-exec
	// stages.
	tbl, err := GroupTable("world", groups)
	if err != nil {
		return nil, err
	}
	tally, err := Sweep(ctx, World{Table: tbl, GroupOn: "g", Preds: []Predicate{
		{Name: "f1", Truth: func(r int) bool { return l1[r] }},
		{Name: "f2", Truth: func(r int) bool { return l2[r] }},
	}}, r.cons(), iters, rng)
	if err != nil {
		return nil, err
	}
	var costAgg, precAgg, recAgg stats.Welford
	for _, o := range tally.Statements {
		costAgg.Add(o.Cost)
		precAgg.Add(o.Precision)
		recAgg.Add(o.Recall)
	}
	// Exact references for this world.
	pass1 := 0
	for _, v := range l1 {
		if v {
			pass1++
		}
	}
	n := float64(len(l1))
	return &TwoPredResult{
		PlannerCost:      costAgg.Mean(),
		ShortCircuitCost: n*core.DefaultCost.Retrieve + (n+float64(pass1))*core.DefaultCost.Evaluate,
		EvalBothCost:     n * (core.DefaultCost.Retrieve + 2*core.DefaultCost.Evaluate),
		Precision:        precAgg.Mean(),
		Recall:           recAgg.Mean(),
		Tally:            tally,
	}, nil
}

func init() {
	register(Experiment{ID: "ext-twopred", Title: "Two-predicate conjunction extension (§5)", Run: runTwoPred})
}
