package experiments

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func bruteForceKnapsack(weights []float64, values []int, threshold int) float64 {
	n := len(weights)
	best := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		w, v := 0.0, 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				w += weights[i]
				v += values[i]
			}
		}
		if v >= threshold && w < best {
			best = w
		}
	}
	return best
}

func TestMinKnapsackKnownInstance(t *testing.T) {
	weights := []float64{5, 4, 3, 2}
	values := []int{4, 3, 2, 1}
	items, w, err := MinKnapsack(weights, values, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Best: items 1 and 2 (values 3+2=5, weight 7).
	if math.Abs(w-7) > 1e-9 {
		t.Fatalf("weight %v want 7 (items %v)", w, items)
	}
	gotV := 0
	for _, i := range items {
		gotV += values[i]
	}
	if gotV < 5 {
		t.Fatalf("selected value %d below threshold", gotV)
	}
}

func TestMinKnapsackMatchesBruteForce(t *testing.T) {
	r := stats.NewRNG(103)
	for trial := 0; trial < 80; trial++ {
		n := 1 + r.IntN(10)
		weights := make([]float64, n)
		values := make([]int, n)
		total := 0
		for i := 0; i < n; i++ {
			weights[i] = float64(1 + r.IntN(40))
			values[i] = r.IntN(15)
			total += values[i]
		}
		if total == 0 {
			continue
		}
		threshold := 1 + r.IntN(total)
		want := bruteForceKnapsack(weights, values, threshold)
		items, got, err := MinKnapsack(weights, values, threshold)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
		// Returned items must actually achieve the threshold and weight.
		v, w := 0, 0.0
		for _, i := range items {
			v += values[i]
			w += weights[i]
		}
		if v < threshold || math.Abs(w-got) > 1e-9 {
			t.Fatalf("trial %d: reported solution inconsistent (v=%d w=%v got=%v)", trial, v, w, got)
		}
	}
}

func TestMinKnapsackEdgeCases(t *testing.T) {
	if items, w, err := MinKnapsack(nil, nil, 0); err != nil || w != 0 || len(items) != 0 {
		t.Fatalf("zero threshold should be trivially solvable: %v %v %v", items, w, err)
	}
	if _, _, err := MinKnapsack([]float64{1}, []int{1}, 5); err == nil {
		t.Fatal("unreachable threshold should error")
	}
	if _, _, err := MinKnapsack([]float64{1}, []int{1, 2}, 1); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, _, err := MinKnapsack([]float64{1}, []int{-1}, 1); err == nil {
		t.Fatal("negative value should error")
	}
}
