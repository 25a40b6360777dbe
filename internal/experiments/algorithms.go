package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/stats"
)

// Shared per-algorithm run helpers. Every helper returns an AlgoOutcome so
// the experiments can aggregate evaluations, retrievals, cost and
// constraint satisfaction uniformly.

// AlgoOutcome is one algorithm run's accounting, scored against ground
// truth.
type AlgoOutcome struct {
	Evaluations int
	Retrievals  int
	Cost        float64
	Precision   float64
	Recall      float64
	SatisfiedP  bool
	SatisfiedR  bool
}

// score rates a run against ground truth: truth(row), of which total rows
// are correct.
func score(truth func(int) bool, total int, cons core.Constraints, run Run, err error) (AlgoOutcome, error) {
	if err != nil {
		return AlgoOutcome{}, err
	}
	m := core.ComputeMetrics(run.Rows, truth, total)
	pOK, rOK := m.Satisfies(cons)
	return AlgoOutcome{
		Evaluations: run.Evaluations,
		Retrievals:  run.Retrievals,
		Cost:        run.Cost,
		Precision:   m.Precision,
		Recall:      m.Recall,
		SatisfiedP:  pOK,
		SatisfiedR:  rOK,
	}, nil
}

// runIntel runs Intel-Sample as the system ships it: one approximate
// statement over the dataset's table, grouped on the named column, on a
// fresh engine.
func runIntel(ctx context.Context, d *dataset.Dataset, cons core.Constraints, groupOn string, seed uint64) (AlgoOutcome, error) {
	w := predictorWorld(d)
	w.GroupOn = groupOn
	run, err := RunEngine(ctx, seed, w, cons)
	return score(d.Truth(), d.TotalCorrect(), cons, run, err)
}

// predictorWorld is the dataset as a Sweep world: its table, grouped on its
// designated predictor, with the hidden label as the one predicate.
func predictorWorld(d *dataset.Dataset) World {
	return World{Table: d.Table, GroupOn: d.Spec.Predictor, Preds: []Predicate{{Name: "truth", Truth: d.Truth()}}}
}

// instance hands the dataset, grouped on its designated predictor, to the
// lab and the reference algorithms; each instance meters its own calls.
func instance(d *dataset.Dataset, cons core.Constraints) (Instance, error) {
	groups, err := d.PredictorGroups()
	if err != nil {
		return Instance{}, err
	}
	return Instance{Groups: groups, Meter: core.NewMeter(d.UDF()), Cons: cons}, nil
}

// runLab runs Intel-Sample in the lab with the draw under study.
func runLab(ctx context.Context, d *dataset.Dataset, cons core.Constraints, draw Draw, rng *stats.RNG) (AlgoOutcome, error) {
	in, err := instance(d, cons)
	if err != nil {
		return AlgoOutcome{}, err
	}
	run, err := Lab(ctx, in, draw, stats.Key(rng.Uint64()))
	return score(d.Truth(), d.TotalCorrect(), cons, run, err)
}

// runOptimal runs the perfect-selectivity reference ("Optimal").
func runOptimal(ctx context.Context, d *dataset.Dataset, cons core.Constraints, rng *stats.RNG) (AlgoOutcome, error) {
	in, err := instance(d, cons)
	if err != nil {
		return AlgoOutcome{}, err
	}
	run, err := RunPerfectSelectivities(ctx, in, d.Truth(), rng)
	return score(d.Truth(), d.TotalCorrect(), cons, run, err)
}

// runNaive runs the Naive baseline.
func runNaive(d *dataset.Dataset, cons core.Constraints, rng *stats.RNG) (AlgoOutcome, error) {
	in, err := instance(d, cons)
	if err != nil {
		return AlgoOutcome{}, err
	}
	run, err := RunNaive(in, rng)
	return score(d.Truth(), d.TotalCorrect(), cons, run, err)
}

// mlFeatures encodes the dataset's feature columns for the ML baselines and
// fig1c's virtual column, excluding the row id and the many noisy extra
// predictors (which would slow training without matching the paper's
// feature set).
func mlFeatures(d *dataset.Dataset) ([][]float64, error) {
	exclude := []string{"id"}
	for i := 0; i < d.Spec.ExtraPredictors; i++ {
		exclude = append(exclude, fmt.Sprintf("pred_%02d", i))
	}
	enc, err := ml.BuildEncoder(d.Table, ml.Encoder{Exclude: exclude})
	if err != nil {
		return nil, err
	}
	return enc.EncodeAll(d.Table), nil
}

// runML runs the semi-supervised Learning baseline, or the
// multiple-imputations one.
func runML(d *dataset.Dataset, cons core.Constraints, features [][]float64, rng *stats.RNG, multiple bool) (AlgoOutcome, error) {
	in, err := instance(d, cons)
	if err != nil {
		return AlgoOutcome{}, err
	}
	clf := &SelfTraining{Rounds: 1, Model: ml.LogisticRegression{Epochs: 60}}
	opts := MLBaselineOptions{InitialFraction: 0.02, GrowthFactor: 1.6}
	run, err := runMLBaseline(in, features, clf, d.Truth(), rng, opts, multiple)
	return score(d.Truth(), d.TotalCorrect(), cons, run, err)
}

// runIntelVirtual runs Intel-Sample over the logistic-regression virtual
// column (Section 6.3.2) with a Two-Third-Power num under study: label 1%
// through the instance's meter, group with ml.VirtualGroups — the function
// the engine's GROUP ON virtual calls — then sample/plan/execute in the lab,
// billing each label as the engine does: as a retrieval, not as evidence
// about the groups it trained (a label drawn again is a memo hit).
func runIntelVirtual(ctx context.Context, d *dataset.Dataset, cons core.Constraints, num float64, rng *stats.RNG, features [][]float64) (AlgoOutcome, error) {
	in := Instance{Meter: core.NewMeter(d.UDF()), Cons: cons}
	rows := make([]int, d.Table.NumRows())
	for i := range rows {
		rows[i] = i
	}
	labeled, err := core.LabelFraction(ctx, rows, core.DefaultLabelFraction, in.Meter, rng, 1)
	if err != nil {
		return AlgoOutcome{}, err
	}
	in.Groups, err = ml.VirtualGroups(func(row int) []float64 { return features[row] }, rows, labeled, 10)
	if err != nil {
		return AlgoOutcome{}, err
	}
	run, err := Lab(ctx, in, TwoThirdPower(num), stats.Key(rng.Uint64()))
	run.Retrievals += labeled.Len()
	run.Cost += float64(labeled.Len()) * core.DefaultCost.Retrieve
	return score(d.Truth(), d.TotalCorrect(), cons, run, err)
}

// average aggregates outcomes.
type average struct {
	evals, retrievals stats.Welford
}

func (a *average) add(o AlgoOutcome) {
	a.evals.Add(float64(o.Evaluations))
	a.retrievals.Add(float64(o.Retrievals))
}

func (a *average) meanEvals() float64      { return a.evals.Mean() }
func (a *average) meanRetrievals() float64 { return a.retrievals.Mean() }
