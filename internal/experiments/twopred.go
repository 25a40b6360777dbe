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
	SatisfiedRate    float64
}

func (t *TwoPredResult) String() string {
	rows := [][]string{
		{"joint planner", f0(t.PlannerCost), f2(t.Precision), f2(t.Recall)},
		{"exact short-circuit", f0(t.ShortCircuitCost), "1.00", "1.00"},
		{"exact eval-both", f0(t.EvalBothCost), "1.00", "1.00"},
	}
	return textTable([]string{"strategy", "cost", "precision", "recall"}, rows) +
		fmt.Sprintf("constraints satisfied in %.0f%% of runs\n", 100*t.SatisfiedRate)
}

func runTwoPred(ctx context.Context, r *Runner) (fmt.Stringer, error) {
	iters := r.iters(20)
	cons := r.cons()
	rng := r.rng(hash("twopred"))

	sizes := []int{3000, 3000, 3000, 3000}
	sel1 := []float64{0.9, 0.55, 0.05, 0.35}
	sel2 := []float64{0.95, 0.6, 0.3, 0.85}

	var costAgg, precAgg, recAgg stats.Welford
	satisfied := 0
	var shortCircuit, evalBoth float64
	for iter := 0; iter < iters; iter++ {
		world := rng.Split()
		total := 0
		for _, s := range sizes {
			total += s
		}
		l1 := make([]bool, total)
		l2 := make([]bool, total)
		groups := make([]core.Group, len(sizes))
		row := 0
		for gi, size := range sizes {
			rows := make([]int, size)
			for k := 0; k < size; k++ {
				rows[k] = row
				l1[row] = world.Bernoulli(sel1[gi])
				l2[row] = world.Bernoulli(sel2[gi])
				row++
			}
			groups[gi] = core.Group{Key: fmt.Sprintf("g%d", gi), Rows: rows}
		}
		// The world becomes a two-column table with two UDFs, so §5 is
		// measured through the engine's conj-sample → conj-solve →
		// conj-exec stages.
		tbl, err := GroupTable("world", groups)
		if err != nil {
			return nil, err
		}
		res, err := RunEngine(ctx, rng.Uint64(), tbl, cons, "g",
			Predicate{Name: "f1", Truth: func(r int) bool { return l1[r] }},
			Predicate{Name: "f2", Truth: func(r int) bool { return l2[r] }})
		if err != nil {
			return nil, err
		}
		truth := func(r int) bool { return l1[r] && l2[r] }
		totalCorrect := 0
		pass1 := 0
		for i := range l1 {
			if truth(i) {
				totalCorrect++
			}
			if l1[i] {
				pass1++
			}
		}
		m := core.ComputeMetrics(res.Rows, truth, totalCorrect)
		costAgg.Add(res.Cost)
		precAgg.Add(m.Precision)
		recAgg.Add(m.Recall)
		pOK, rOK := m.Satisfies(cons)
		if pOK && rOK {
			satisfied++
		}
		// Exact references for this world.
		n := float64(total)
		shortCircuit = n*core.DefaultCost.Retrieve + (n+float64(pass1))*core.DefaultCost.Evaluate
		evalBoth = n * (core.DefaultCost.Retrieve + 2*core.DefaultCost.Evaluate)
	}
	return &TwoPredResult{
		PlannerCost:      costAgg.Mean(),
		ShortCircuitCost: shortCircuit,
		EvalBothCost:     evalBoth,
		Precision:        precAgg.Mean(),
		Recall:           recAgg.Mean(),
		SatisfiedRate:    float64(satisfied) / float64(iters),
	}, nil
}

func init() {
	register(Experiment{ID: "ext-twopred", Title: "Two-predicate conjunction extension (§5)", Run: runTwoPred})
}
