package experiments

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/stats"
)

// Experiment baselines (Section 6.2). Naive needs nothing extra; the two
// machine-learning baselines take a semi-supervised classifier through the
// SemiSupervised interface (SelfTraining is the one the experiments use; the
// tests substitute a stub).

// RunNaive implements the Naive baseline: retrieve a uniformly random β
// fraction of all tuples, evaluate every one of them, and return the
// matching tuples. It satisfies the recall constraint in expectation only,
// and precision exactly (everything returned is verified).
func RunNaive(in Instance, rng *stats.RNG) (Run, error) {
	if err := in.Validate(); err != nil {
		return Run{}, err
	}
	if rng == nil {
		return Run{}, fmt.Errorf("experiments: rng is required")
	}
	// The uniform fraction is the k lowest-ranked rows under a key.
	key, all := stats.Key(rng.Uint64()), in.rows()
	k := int(math.Ceil(in.Cons.Beta * float64(len(all))))
	slices.SortFunc(all, func(a, b int) int { return cmp.Compare(key.Rank(a), key.Rank(b)) })
	var output []int
	for _, row := range all[:k] {
		if in.Meter.Eval(row) {
			output = append(output, row)
		}
	}
	return Run{
		Rows:        output,
		Evaluations: k,
		Retrievals:  k,
		Cost:        float64(k) * (core.DefaultCost.Retrieve + core.DefaultCost.Evaluate),
	}, nil
}

// SemiSupervised is a semi-supervised classifier: given the feature matrix
// for every row, the indices of labeled rows and their labels, it returns
// the estimated probability that each row satisfies the predicate.
// Implementations typically self-train: fit on the labeled rows, pseudo-
// label confident predictions, refit.
type SemiSupervised interface {
	FitPredict(features [][]float64, labeledIdx []int, labels []bool) []float64
}

// MLBaselineOptions tunes the Learning/Multiple baselines.
type MLBaselineOptions struct {
	// InitialFraction of tuples to label first (default 0.02).
	InitialFraction float64
	// GrowthFactor enlarges the labeled set each round (default 1.5).
	GrowthFactor float64
	// MaxFraction caps the labeled set (default 1.0: may label everything).
	MaxFraction float64
	// Threshold is the probability cutoff for predicting true (default 0.5).
	Threshold float64
	// Imputations is the number of imputed datasets of the Multiple
	// baseline (default 5).
	Imputations int
}

func (o *MLBaselineOptions) fill() {
	if o.InitialFraction <= 0 {
		o.InitialFraction = 0.02
	}
	if o.GrowthFactor <= 1 {
		o.GrowthFactor = 1.5
	}
	if o.MaxFraction <= 0 || o.MaxFraction > 1 {
		o.MaxFraction = 1
	}
	if o.Threshold <= 0 || o.Threshold >= 1 {
		o.Threshold = 0.5
	}
	if o.Imputations <= 0 {
		o.Imputations = 5
	}
}

// runMLBaseline runs the Learning baseline, or with multiple set the
// Multiple (multiple imputations) baseline. Learning evaluates a batch of
// tuples, trains the semi-supervised classifier, and returns evaluated-true
// plus predicted-true tuples; the batch grows until the precision and recall
// constraints are met — checked against ground truth, which (as the paper
// notes) gives this baseline an unfair advantage since real deployments
// cannot know when to stop. Multiple gives unlabeled tuples labels drawn
// from the classifier's class probabilities, and the labeled set grows
// until the constraints hold on average across the imputed datasets.
func runMLBaseline(in Instance, features [][]float64, clf SemiSupervised, truth func(row int) bool, rng *stats.RNG, opts MLBaselineOptions, multiple bool) (Run, error) {
	if err := in.Validate(); err != nil {
		return Run{}, err
	}
	if rng == nil || clf == nil || truth == nil {
		return Run{}, fmt.Errorf("experiments: rng, classifier and truth are required")
	}
	opts.fill()

	all := in.rows()
	n := len(all)
	if n == 0 {
		return Run{}, fmt.Errorf("experiments: empty instance")
	}
	for _, row := range all {
		if row >= len(features) {
			return Run{}, fmt.Errorf("experiments: row %d has no feature vector (have %d)", row, len(features))
		}
	}
	totalCorrect := 0
	for _, row := range all {
		if truth(row) {
			totalCorrect++
		}
	}

	// A fixed random order defines the growing labeled prefix, so each
	// round reuses all previous evaluations.
	perm := rng.Perm(n)
	labeled := 0
	var labeledIdx []int
	var labels []bool
	meter := in.Meter

	target := int(math.Ceil(opts.InitialFraction * float64(n)))
	for {
		if target > int(opts.MaxFraction*float64(n)) {
			target = int(opts.MaxFraction * float64(n))
		}
		if target <= labeled {
			target = labeled + 1
		}
		if target > n {
			target = n
		}
		for labeled < target {
			row := all[perm[labeled]]
			v := meter.Eval(row)
			labeledIdx = append(labeledIdx, perm[labeled])
			labels = append(labels, v)
			labeled++
		}

		feats := make([][]float64, n)
		for i, row := range all {
			feats[i] = features[row]
		}
		probs := clf.FitPredict(feats, labeledIdx, labels)

		isLabeled := make([]bool, n)
		for _, i := range labeledIdx {
			isLabeled[i] = true
		}

		build := func(impute bool) []int {
			var out []int
			for i, row := range all {
				switch {
				case isLabeled[i]:
					if v, _ := meter.Known(row); v {
						out = append(out, row)
					}
				case impute:
					if rng.Bernoulli(probs[i]) {
						out = append(out, row)
					}
				default:
					if probs[i] >= opts.Threshold {
						out = append(out, row)
					}
				}
			}
			return out
		}

		var output []int
		satisfied := false
		if multiple {
			var sumP, sumR float64
			for j := 0; j < opts.Imputations; j++ {
				out := build(true)
				m := core.ComputeMetrics(out, truth, totalCorrect)
				sumP += m.Precision
				sumR += m.Recall
				output = out
			}
			k := float64(opts.Imputations)
			satisfied = sumP/k >= in.Cons.Alpha && sumR/k >= in.Cons.Beta
		} else {
			output = build(false)
			m := core.ComputeMetrics(output, truth, totalCorrect)
			pOK, rOK := m.Satisfies(in.Cons)
			satisfied = pOK && rOK
		}

		if satisfied || labeled >= n || labeled >= int(opts.MaxFraction*float64(n)) {
			retrievedExtra := 0
			for _, row := range output {
				if _, known := meter.Known(row); !known {
					retrievedExtra++
				}
			}
			evals := meter.Calls()
			return Run{
				Rows:        output,
				Evaluations: evals,
				Retrievals:  evals + retrievedExtra,
				Sampled:     evals,
				Cost: float64(evals)*(core.DefaultCost.Retrieve+core.DefaultCost.Evaluate) +
					float64(retrievedExtra)*core.DefaultCost.Retrieve,
			}, nil
		}
		target = int(math.Ceil(float64(target) * opts.GrowthFactor))
	}
}
