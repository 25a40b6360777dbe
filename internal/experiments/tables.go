package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// ---------------------------------------------------------------- table1

// Table1Result reproduces the Section 2 worked example (Table 1): a
// 12-tuple relation with three groups, solved exactly with the
// perfect-information optimizer.
type Table1Result struct {
	Groups  []PerfectInfoGroup
	Actions []Action
	Cost    float64
}

func (t *Table1Result) String() string {
	rows := make([][]string, len(t.Groups))
	for i, g := range t.Groups {
		rows[i] = []string{
			g.Key,
			fmt.Sprintf("%d", g.Correct+g.Wrong),
			fmt.Sprintf("%d", g.Correct),
			t.Actions[i].String(),
		}
	}
	return textTable([]string{"A", "tuples", "correct", "action"}, rows) +
		fmt.Sprintf("optimal cost: %.0f\n", t.Cost)
}

func runTable1(ctx context.Context, r *Runner) (fmt.Stringer, error) {
	// Table 1 of the paper: A=1 has 4/4 correct, A=2 has 1/3, A=3 has 1/5.
	groups := []PerfectInfoGroup{
		{Key: "1", Correct: 4, Wrong: 0},
		{Key: "2", Correct: 1, Wrong: 2},
		{Key: "3", Correct: 1, Wrong: 4},
	}
	plan, err := SolvePerfectInformation(groups, core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}, core.DefaultCost)
	if err != nil {
		return nil, err
	}
	return &Table1Result{Groups: groups, Actions: plan.Actions, Cost: plan.Cost}, nil
}

// ---------------------------------------------------------------- table2

// Table2Row is one dataset's line of Table 2.
type Table2Row struct {
	Dataset         string
	Selectivity     float64
	NaiveEvals      float64
	IntelEvals      float64
	BestMLEvals     float64
	SavingsVsNaive  float64 // 1 − intel/naive
	SavingsVsBestML float64 // 1 − intel/bestML
}

// Table2Result reproduces Table 2: selectivities and savings per dataset.
type Table2Result struct{ Rows []Table2Row }

func (t *Table2Result) String() string {
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = []string{
			r.Dataset, f2(r.Selectivity),
			f0(r.NaiveEvals), f0(r.IntelEvals), f0(r.BestMLEvals),
			pct(r.SavingsVsNaive), pct(r.SavingsVsBestML),
		}
	}
	return textTable(
		[]string{"dataset", "selectivity", "naive", "intel-sample", "best-ml", "vs naive", "vs ml"},
		rows)
}

func runTable2(ctx context.Context, r *Runner) (fmt.Stringer, error) {
	iters := r.iters(10)
	mlIters := iters
	if mlIters > 5 {
		mlIters = 5 // the ML baselines are far slower; average fewer runs
	}
	cons := r.cons()
	res := &Table2Result{}
	for _, name := range DatasetNames() {
		d, err := r.Dataset(name)
		if err != nil {
			return nil, err
		}
		rng := r.rng(hash(name))
		var naive, intel, learning, multiple average
		for i := 0; i < iters; i++ {
			o, err := runNaive(d, cons, rng.Split())
			if err != nil {
				return nil, err
			}
			naive.add(o)
			o, err = runIntel(ctx, d, cons, d.Spec.Predictor, rng.Uint64())
			if err != nil {
				return nil, err
			}
			intel.add(o)
		}
		features, err := mlFeatures(d)
		if err != nil {
			return nil, err
		}
		for i := 0; i < mlIters; i++ {
			o, err := runML(d, cons, features, rng.Split(), false)
			if err != nil {
				return nil, err
			}
			learning.add(o)
			o, err = runML(d, cons, features, rng.Split(), true)
			if err != nil {
				return nil, err
			}
			multiple.add(o)
		}
		bestML := learning.meanEvals()
		if multiple.meanEvals() < bestML {
			bestML = multiple.meanEvals()
		}
		row := Table2Row{
			Dataset:     name,
			Selectivity: d.OverallSelectivity(),
			NaiveEvals:  naive.meanEvals(),
			IntelEvals:  intel.meanEvals(),
			BestMLEvals: bestML,
		}
		if row.NaiveEvals > 0 {
			row.SavingsVsNaive = 1 - row.IntelEvals/row.NaiveEvals
		}
		if row.BestMLEvals > 0 {
			row.SavingsVsBestML = 1 - row.IntelEvals/row.BestMLEvals
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// ---------------------------------------------------------------- table3

// Table3Row is one dataset's line of Table 3 (Appendix 10.8).
type Table3Row struct {
	Dataset     string
	NumGroups   int
	SizeDev     float64
	SelDev      float64
	Correlation float64
}

// Table3Result reproduces Table 3: group statistics per dataset.
type Table3Result struct{ Rows []Table3Row }

func (t *Table3Result) String() string {
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = []string{
			r.Dataset, fmt.Sprintf("%d", r.NumGroups),
			f0(r.SizeDev), f2(r.SelDev), f2(r.Correlation),
		}
	}
	return textTable([]string{"dataset", "groups", "size dev", "sel dev", "corr"}, rows)
}

func runTable3(ctx context.Context, r *Runner) (fmt.Stringer, error) {
	res := &Table3Result{}
	for _, name := range DatasetNames() {
		d, err := r.Dataset(name)
		if err != nil {
			return nil, err
		}
		groups, sizeDev, selDev, corr := d.MeasuredStats()
		res.Rows = append(res.Rows, Table3Row{
			Dataset: name, NumGroups: groups,
			SizeDev: sizeDev, SelDev: selDev, Correlation: corr,
		})
	}
	return res, nil
}

func hash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func init() {
	register(Experiment{ID: "table1", Title: "Worked example (Table 1) solved exactly", Run: runTable1})
	register(Experiment{ID: "table2", Title: "Selectivities and savings per dataset (Table 2)", Run: runTable2})
	register(Experiment{ID: "table3", Title: "Group statistics per dataset (Table 3)", Run: runTable3})
}
