package core

import (
	"context"
	"maps"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/stats"
)

// Keyed draws: a row's label, sample and coins are functions of (key, row)
// alone, so samples nest as they grow and no draw depends on the order the
// groups come in.

func TestLabelsNestAcrossFractions(t *testing.T) {
	rows := make([]int, 3000)
	for i := range rows {
		rows[i] = 3*i + 7
	}
	udf := UDFFunc(func(row int) bool { return row%4 == 1 })
	labels := func(f float64) map[int]bool {
		l, err := LabelFractionParallelCtx(context.Background(), rows, f, NewMeter(udf), stats.NewRNG(41), 1)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	for _, f := range []float64{0.01, 0.05, 0.2} {
		small, large := labels(f), labels(2*f)
		if len(small) != LabelTarget(f, len(rows)) || len(large) != LabelTarget(2*f, len(rows)) {
			t.Fatalf("f=%v: %d and %d labels, want %d and %d", f, len(small), len(large),
				LabelTarget(f, len(rows)), LabelTarget(2*f, len(rows)))
		}
		for row, v := range small {
			if w, ok := large[row]; !ok || w != v {
				t.Fatalf("f=%v: row %d labeled at f is not labeled alike at 2f", f, row)
			}
		}
	}
}

func TestDrawsIgnoreGroupOrder(t *testing.T) {
	rng := stats.NewRNG(77)
	groups, _, truth := syntheticGroups(rng, []int{400, 250, 600, 150}, []float64{0.8, 0.5, 0.3, 0.1})
	targets := []int{30, 20, 45, 12}
	strat := NewStrategy(len(groups))
	for i := range groups {
		strat.R[i], strat.E[i] = 0.9-0.2*float64(i), 0.5-0.1*float64(i)
	}
	key := stats.Key(2024)
	run := func(order []int) (map[int]bool, []int) {
		gs, ts, st := make([]Group, len(order)), make([]int, len(order)), NewStrategy(len(order))
		for j, i := range order {
			gs[j], ts[j], st.R[j], st.E[j] = groups[i], targets[i], strat.R[i], strat.E[i]
		}
		meter := NewMeter(UDFFunc(truth))
		s := NewJointSampler(gs, []*Meter{meter}, key.Sub(SampleDraw))
		if _, err := s.TopUpCtx(context.Background(), ts); err != nil {
			t.Fatal(err)
		}
		outcomes := map[int]bool{}
		for _, o := range s.Outcomes() {
			maps.Insert(outcomes, o.Results.All())
		}
		res, err := ExecuteSpansParallelCtx(context.Background(), gs, st, nil, s.Outcomes(), []*Meter{meter}, DefaultCost, key.Sub(ExecuteDraw), exec.NewPool(1))
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(res.Output)
		return outcomes, res.Output
	}
	outcomes, output := run([]int{0, 1, 2, 3})
	if len(outcomes) != 30+20+45+12 || len(output) == 0 {
		t.Fatalf("scenario is miscalibrated: %d outcomes, %d rows out", len(outcomes), len(output))
	}
	for _, order := range [][]int{{3, 2, 1, 0}, {2, 0, 3, 1}} {
		o, out := run(order)
		if !maps.Equal(o, outcomes) {
			t.Errorf("order %v: per-row sample outcomes changed", order)
		}
		if !slices.Equal(out, output) {
			t.Errorf("order %v: output set changed (%d rows, want %d)", order, len(out), len(output))
		}
	}
}
