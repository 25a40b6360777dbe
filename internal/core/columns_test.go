package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/stats"
)

// buildCandidates creates a relation with a strongly correlated column, a
// weakly correlated column, and a high-cardinality column.
func buildCandidates(rng *stats.RNG, n int) ([]Candidate, []bool, func(int) bool) {
	labels := make([]bool, n)
	strong := make([]int, n) // 3 values tracking the label closely
	weak := make([]int, n)   // 3 values, mostly noise
	wide := make([]int, n)   // ~n/2 distinct values
	for i := 0; i < n; i++ {
		g := i % 3
		sel := []float64{0.9, 0.5, 0.1}[g]
		labels[i] = rng.Bernoulli(sel)
		strong[i] = g
		if rng.Bernoulli(0.9) {
			weak[i] = rng.IntN(3)
		} else {
			weak[i] = g
		}
		wide[i] = i % (n / 2)
	}
	toGroups := func(vals []int) []Group {
		byVal := map[int][]int{}
		for row, v := range vals {
			byVal[v] = append(byVal[v], row)
		}
		var groups []Group
		for v := 0; v < len(byVal); v++ {
			groups = append(groups, Group{Key: string(rune('0' + v%10)), Rows: byVal[v]})
		}
		return groups
	}
	cands := []Candidate{
		{Name: "strong", Groups: toGroups(strong)},
		{Name: "weak", Groups: toGroups(weak)},
		{Name: "wide", Groups: toGroups(wide)},
	}
	truth := func(r int) bool { return labels[r] }
	return cands, labels, truth
}

func TestSelectColumnPrefersCorrelated(t *testing.T) {
	rng := stats.NewRNG(701)
	cands, _, truth := buildCandidates(rng, 3000)
	rows := make([]int, 3000)
	for i := range rows {
		rows[i] = i
	}
	labeled, err := LabelFractionParallelCtx(context.Background(), rows, 0.05, UDFFunc(truth), rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	cons := Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	choice, err := SelectColumn(cands, labeled, cons, DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Name != "strong" {
		t.Fatalf("chose %q, want strong (costs %v)", choice.Name, choice.EstimatedCost)
	}
	// The wide column must be disqualified (cardinality above √|labeled|).
	if !math.IsInf(choice.EstimatedCost[2], 1) {
		t.Fatalf("wide column was not disqualified: %v", choice.EstimatedCost[2])
	}
	// The strong column's estimated cost must be lower than the weak one's.
	if choice.EstimatedCost[0] >= choice.EstimatedCost[1] {
		t.Fatalf("strong cost %v not below weak %v", choice.EstimatedCost[0], choice.EstimatedCost[1])
	}
}

func TestSelectColumnErrors(t *testing.T) {
	cons := Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	if _, err := SelectColumn(nil, map[int]bool{0: true}, cons, DefaultCost); err == nil {
		t.Fatal("no candidates accepted")
	}
	cand := []Candidate{{Name: "x", Groups: []Group{{Rows: []int{0, 1}}}}}
	if _, err := SelectColumn(cand, nil, cons, DefaultCost); err == nil {
		t.Fatal("no labels accepted")
	}
	// All candidates disqualified: 4 labeled tuples allow at most 2 groups.
	wide := []Candidate{{Name: "wide", Groups: []Group{
		{Rows: []int{0}}, {Rows: []int{1}}, {Rows: []int{2}}, {Rows: []int{3}},
	}}}
	labeled := map[int]bool{0: true, 1: false, 2: true, 3: false}
	if _, err := SelectColumn(wide, labeled, cons, DefaultCost); err == nil {
		t.Fatal("all-disqualified should error")
	}
}

func TestLabelFraction(t *testing.T) {
	rng := stats.NewRNG(703)
	rows := make([]int, 100)
	for i := range rows {
		rows[i] = i + 1000 // offset to catch index/row confusion
	}
	calls := 0
	udf := UDFFunc(func(row int) bool {
		calls++
		return row%2 == 0
	})
	labeled, err := LabelFractionParallelCtx(context.Background(), rows, 0.1, udf, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(labeled) != 10 || calls != 10 {
		t.Fatalf("labeled %d calls %d, want 10", len(labeled), calls)
	}
	for row, v := range labeled {
		if row < 1000 || row >= 1100 {
			t.Fatalf("labeled row %d outside the relation", row)
		}
		if v != (row%2 == 0) {
			t.Fatalf("label for %d wrong", row)
		}
	}
}
