package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// stubClassifier estimates P(true) per bucket of feature[0] from the
// labeled rows — a deliberately simple SemiSupervised implementation for
// exercising the baseline plumbing without the ml package.
type stubClassifier struct{}

func (stubClassifier) FitPredict(features [][]float64, labeledIdx []int, labels []bool) []float64 {
	pos := map[float64]float64{}
	tot := map[float64]float64{}
	for k, i := range labeledIdx {
		key := features[i][0]
		tot[key]++
		if labels[k] {
			pos[key]++
		}
	}
	out := make([]float64, len(features))
	for i, f := range features {
		key := f[0]
		if tot[key] > 0 {
			out[i] = (pos[key] + 1) / (tot[key] + 2)
		} else {
			out[i] = 0.5
		}
	}
	return out
}

func mlTestSetup(rng *stats.RNG) (Instance, [][]float64, []bool, func(int) bool) {
	in, labels, truth := testInstance(rng)
	// Feature: the group id (a perfectly informative categorical feature).
	features := make([][]float64, len(labels))
	for gi, g := range in.Groups {
		for _, row := range g.Rows {
			features[row] = []float64{float64(gi)}
		}
	}
	return in, features, labels, truth
}

func TestRunLearningTerminatesAndSatisfies(t *testing.T) {
	rng := stats.NewRNG(901)
	in, features, labels, truth := mlTestSetup(rng)
	res, err := runMLBaseline(in, features, stubClassifier{}, truth, rng.Split(), MLBaselineOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations == 0 {
		t.Fatal("learning baseline evaluated nothing")
	}
	m := core.ComputeMetrics(res.Rows, truth, totalCorrect(labels))
	pOK, rOK := m.Satisfies(in.Cons)
	if !(pOK && rOK) && res.Evaluations < len(in.rows()) {
		t.Fatalf("terminated without satisfying constraints: %+v after %d evals", m, res.Evaluations)
	}
}

func TestRunMultipleTerminates(t *testing.T) {
	rng := stats.NewRNG(903)
	in, features, _, truth := mlTestSetup(rng)
	res, err := runMLBaseline(in, features, stubClassifier{}, truth, rng.Split(), MLBaselineOptions{Imputations: 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations == 0 || res.Evaluations > len(in.rows()) {
		t.Fatalf("evaluations %d out of range", res.Evaluations)
	}
	if res.Cost <= 0 {
		t.Fatalf("cost %v", res.Cost)
	}
}

func TestRunMLBaselineValidation(t *testing.T) {
	rng := stats.NewRNG(905)
	in, features, _, truth := mlTestSetup(rng)
	if _, err := runMLBaseline(in, features, nil, truth, rng, MLBaselineOptions{}, false); err == nil {
		t.Fatal("nil classifier accepted")
	}
	if _, err := runMLBaseline(in, features, stubClassifier{}, nil, rng, MLBaselineOptions{}, false); err == nil {
		t.Fatal("nil truth accepted")
	}
	if _, err := runMLBaseline(in, features, stubClassifier{}, truth, nil, MLBaselineOptions{}, false); err == nil {
		t.Fatal("nil rng accepted")
	}
	short := [][]float64{{1}}
	if _, err := runMLBaseline(in, short, stubClassifier{}, truth, rng, MLBaselineOptions{}, false); err == nil {
		t.Fatal("short feature matrix accepted")
	}
}

func TestRunNaiveValidation(t *testing.T) {
	rng := stats.NewRNG(907)
	in, _, _ := testInstance(rng)
	if _, err := RunNaive(in, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	bad := in
	bad.Groups = nil
	if _, err := RunNaive(bad, rng); err == nil {
		t.Fatal("empty instance accepted")
	}
}
