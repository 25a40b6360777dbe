package experiments

import (
	"testing"

	"repro/internal/stats"
)

// linearlySeparable builds a 2D dataset where y = (x0 + x1 > 0).
func linearlySeparable(rng *stats.RNG, n int) ([][]float64, []bool) {
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := 0; i < n; i++ {
		x0 := rng.NormFloat64()
		x1 := rng.NormFloat64()
		X[i] = []float64{x0, x1}
		y[i] = x0+x1 > 0
	}
	return X, y
}

func TestSelfTrainingImprovesOnTinyLabeledSet(t *testing.T) {
	rng := stats.NewRNG(1005)
	X, y := linearlySeparable(rng, 1000)
	labeledIdx := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	labels := make([]bool, len(labeledIdx))
	for k, i := range labeledIdx {
		labels[k] = y[i]
	}
	var st SelfTraining
	probs := st.FitPredict(X, labeledIdx, labels)
	if len(probs) != len(X) {
		t.Fatalf("got %d probs", len(probs))
	}
	correct := 0
	for i := range X {
		if (probs[i] >= 0.5) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.85 {
		t.Fatalf("self-training accuracy %v", acc)
	}
	// Labeled rows must keep their hard labels.
	for k, i := range labeledIdx {
		want := 0.0
		if labels[k] {
			want = 1
		}
		if probs[i] != want {
			t.Fatalf("labeled row %d prob %v, want %v", i, probs[i], want)
		}
	}
}

func TestSelfTrainingNoLabels(t *testing.T) {
	var st SelfTraining
	probs := st.FitPredict([][]float64{{1}, {2}}, nil, nil)
	for _, p := range probs {
		if p != 0.5 {
			t.Fatalf("unlabeled-only prob %v, want 0.5", p)
		}
	}
}
