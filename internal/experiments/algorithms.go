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

// AlgoOutcome is one algorithm run's accounting.
type AlgoOutcome struct {
	Evaluations int
	Retrievals  int
	Cost        float64
	Precision   float64
	Recall      float64
	SatisfiedP  bool
	SatisfiedR  bool
}

func outcomeFromRun(d *dataset.Dataset, cons core.Constraints, res core.RunResult) AlgoOutcome {
	m := core.ComputeMetrics(res.Output, d.Truth(), d.TotalCorrect())
	pOK, rOK := m.Satisfies(cons)
	return AlgoOutcome{
		Evaluations: res.TotalEvaluations,
		Retrievals:  res.TotalRetrievals,
		Cost:        res.TotalCost,
		Precision:   m.Precision,
		Recall:      m.Recall,
		SatisfiedP:  pOK,
		SatisfiedR:  rOK,
	}
}

// runIntel runs the Intel-Sample pipeline with the given allocator (nil =
// the default TwoThirdPower(2.5α)).
func runIntel(ctx context.Context, d *dataset.Dataset, cons core.Constraints, alloc core.Allocator, rng *stats.RNG) (AlgoOutcome, error) {
	in, err := d.Instance(cons, core.DefaultCost)
	if err != nil {
		return AlgoOutcome{}, err
	}
	res, err := core.RunIntelSample(ctx, in, core.RunOptions{Alloc: alloc, RNG: rng})
	if err != nil {
		return AlgoOutcome{}, err
	}
	return outcomeFromRun(d, cons, res), nil
}

// runOptimal runs the perfect-selectivity reference ("Optimal").
func runOptimal(ctx context.Context, d *dataset.Dataset, cons core.Constraints, rng *stats.RNG) (AlgoOutcome, error) {
	in, err := d.Instance(cons, core.DefaultCost)
	if err != nil {
		return AlgoOutcome{}, err
	}
	res, err := core.RunPerfectSelectivities(ctx, in, d.Truth(), rng)
	if err != nil {
		return AlgoOutcome{}, err
	}
	return outcomeFromRun(d, cons, res), nil
}

// runNaive runs the Naive baseline.
func runNaive(d *dataset.Dataset, cons core.Constraints, rng *stats.RNG) (AlgoOutcome, error) {
	in, err := d.Instance(cons, core.DefaultCost)
	if err != nil {
		return AlgoOutcome{}, err
	}
	res, err := core.RunNaive(in, rng)
	if err != nil {
		return AlgoOutcome{}, err
	}
	return outcomeFromRun(d, cons, res), nil
}

// mlFeatures encodes the dataset's feature columns for the ML baselines,
// excluding the row id and the many noisy extra predictors (which would
// slow training without matching the paper's feature set).
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

func mlOpts() core.MLBaselineOptions {
	return core.MLBaselineOptions{InitialFraction: 0.02, GrowthFactor: 1.6}
}

func mlClassifier() *ml.SelfTraining {
	return &ml.SelfTraining{Rounds: 1, Model: ml.LogisticRegression{Epochs: 60}}
}

// runLearning runs the semi-supervised Learning baseline.
func runLearning(d *dataset.Dataset, cons core.Constraints, features [][]float64, rng *stats.RNG) (AlgoOutcome, error) {
	in, err := d.Instance(cons, core.DefaultCost)
	if err != nil {
		return AlgoOutcome{}, err
	}
	res, err := core.RunLearning(in, features, mlClassifier(), d.Truth(), rng, mlOpts())
	if err != nil {
		return AlgoOutcome{}, err
	}
	return outcomeFromRun(d, cons, res), nil
}

// runMultiple runs the multiple-imputations baseline.
func runMultiple(d *dataset.Dataset, cons core.Constraints, features [][]float64, rng *stats.RNG) (AlgoOutcome, error) {
	in, err := d.Instance(cons, core.DefaultCost)
	if err != nil {
		return AlgoOutcome{}, err
	}
	res, err := core.RunMultiple(in, features, mlClassifier(), d.Truth(), rng, mlOpts())
	if err != nil {
		return AlgoOutcome{}, err
	}
	return outcomeFromRun(d, cons, res), nil
}

// runIntelVirtual runs Intel-Sample over the logistic-regression virtual
// column (Section 6.3.2): label 1%, train, bucket scores into 10 groups,
// then sample/plan/execute as usual. The 1% training labels are preloaded
// into the sampler so they are charged once and reused.
func runIntelVirtual(ctx context.Context, d *dataset.Dataset, cons core.Constraints, num float64, rng *stats.RNG, features [][]float64) (AlgoOutcome, error) {
	meter := core.NewMeter(d.UDF())
	n := d.Table.NumRows()
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	labeled, err := core.LabelFractionParallelCtx(ctx, rows, 0.01, meter, rng, 1)
	if err != nil {
		return AlgoOutcome{}, err
	}

	X := make([][]float64, 0, len(labeled))
	y := make([]bool, 0, len(labeled))
	for row, v := range labeled {
		X = append(X, features[row])
		y = append(y, v)
	}
	model := ml.LogisticRegression{Epochs: 80}
	if err := model.Fit(X, y); err != nil {
		return AlgoOutcome{}, err
	}
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = model.Prob(features[i])
	}
	buckets := ml.EqualFrequencyBuckets(scores, 10)
	byBucket := make([][]int, 10)
	for row, b := range buckets {
		byBucket[b] = append(byBucket[b], row)
	}
	var groups []core.Group
	for b, rws := range byBucket {
		if len(rws) == 0 {
			continue
		}
		groups = append(groups, core.Group{Key: fmt.Sprintf("b%02d", b), Rows: rws})
	}

	sampler := core.NewSampler(groups, meter, rng.Split())
	sampler.Preload(labeled)
	sizes := make([]int, len(groups))
	for i, g := range groups {
		sizes[i] = len(g.Rows)
	}
	if _, err := sampler.TopUpCtx(ctx, (core.TwoThirdPowerAllocator{Num: num}).Allocate(sizes)); err != nil {
		return AlgoOutcome{}, err
	}
	strat, err := core.PlanWithSamples(sampler.Infos(), cons, core.DefaultCost)
	if err != nil {
		return AlgoOutcome{}, err
	}
	exec, err := core.ExecuteParallelCtx(ctx, groups, strat, sampler.Outcomes(), meter, core.DefaultCost, rng.Split(), 1)
	if err != nil {
		return AlgoOutcome{}, err
	}
	m := core.ComputeMetrics(exec.Output, d.Truth(), d.TotalCorrect())
	pOK, rOK := m.Satisfies(cons)
	retr := sampler.TotalSampled() + exec.Retrieved
	return AlgoOutcome{
		Evaluations: meter.Calls(),
		Retrievals:  retr,
		Cost:        float64(meter.Calls())*core.DefaultCost.Evaluate + float64(retr)*core.DefaultCost.Retrieve,
		Precision:   m.Precision,
		Recall:      m.Recall,
		SatisfiedP:  pOK,
		SatisfiedR:  rOK,
	}, nil
}

// average aggregates outcomes.
type average struct {
	evals, retrievals, cost stats.Welford
	precOK, recallOK        int
	n                       int
}

func (a *average) add(o AlgoOutcome) {
	a.evals.Add(float64(o.Evaluations))
	a.retrievals.Add(float64(o.Retrievals))
	a.cost.Add(o.Cost)
	if o.SatisfiedP {
		a.precOK++
	}
	if o.SatisfiedR {
		a.recallOK++
	}
	a.n++
}

func (a *average) meanEvals() float64      { return a.evals.Mean() }
func (a *average) meanRetrievals() float64 { return a.retrievals.Mean() }
func (a *average) precRate() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.precOK) / float64(a.n)
}
func (a *average) recallRate() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.recallOK) / float64(a.n)
}
