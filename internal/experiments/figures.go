package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// ------------------------------------------------------------------ fig1a

// CostComparisonResult holds a bar chart's data: per dataset, the mean
// number of UDF evaluations per algorithm.
type CostComparisonResult struct {
	Title      string
	Algorithms []string
	Datasets   []string
	// Evals[d][a] is the mean evaluation count of algorithm a on dataset d.
	Evals [][]float64
}

func (c *CostComparisonResult) String() string {
	header := append([]string{"dataset"}, c.Algorithms...)
	rows := make([][]string, len(c.Datasets))
	for i, d := range c.Datasets {
		row := []string{d}
		for _, v := range c.Evals[i] {
			row = append(row, f0(v))
		}
		rows[i] = row
	}
	return textTable(header, rows)
}

func runFig1a(ctx context.Context, r *Runner) (fmt.Stringer, error) {
	iters := r.iters(50)
	cons := r.cons()
	res := &CostComparisonResult{
		Title:      "Figure 1(a)",
		Algorithms: []string{"naive", "intel-sample", "optimal"},
	}
	for _, name := range DatasetNames() {
		d, err := r.Dataset(name)
		if err != nil {
			return nil, err
		}
		rng := r.rng(hash("fig1a" + name))
		var naive, intel, optimal average
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
			o, err = runOptimal(ctx, d, cons, rng.Split())
			if err != nil {
				return nil, err
			}
			optimal.add(o)
		}
		res.Datasets = append(res.Datasets, name)
		res.Evals = append(res.Evals, []float64{naive.meanEvals(), intel.meanEvals(), optimal.meanEvals()})
	}
	return res, nil
}

// ------------------------------------------------------------------ fig1b

func runFig1b(ctx context.Context, r *Runner) (fmt.Stringer, error) {
	iters := r.iters(5)
	cons := r.cons()
	res := &CostComparisonResult{
		Title:      "Figure 1(b)",
		Algorithms: []string{"learning", "multiple", "intel-sample"},
	}
	for _, name := range DatasetNames() {
		d, err := r.Dataset(name)
		if err != nil {
			return nil, err
		}
		features, err := mlFeatures(d)
		if err != nil {
			return nil, err
		}
		rng := r.rng(hash("fig1b" + name))
		var learning, multiple, intel average
		for i := 0; i < iters; i++ {
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
			o, err = runIntel(ctx, d, cons, d.Spec.Predictor, rng.Uint64())
			if err != nil {
				return nil, err
			}
			intel.add(o)
		}
		res.Datasets = append(res.Datasets, name)
		res.Evals = append(res.Evals, []float64{learning.meanEvals(), multiple.meanEvals(), intel.meanEvals()})
	}
	return res, nil
}

// ------------------------------------------------------------------ fig1c

// SweepResult is a line chart: per dataset (series), the mean evaluation
// (or retrieval) count at each x value.
type SweepResult struct {
	Title  string
	XLabel string
	X      []float64
	Series []string
	// Y[s][x] is the metric of series s at X[x].
	Y [][]float64
}

func (s *SweepResult) String() string {
	header := append([]string{s.XLabel}, s.Series...)
	rows := make([][]string, len(s.X))
	for i := range s.X {
		row := []string{f2(s.X[i])}
		for _, series := range s.Y {
			row = append(row, f0(series[i]))
		}
		rows[i] = row
	}
	return textTable(header, rows)
}

func runFig1c(ctx context.Context, r *Runner) (fmt.Stringer, error) {
	iters := r.iters(5)
	cons := r.cons()
	nums := []float64{0.5, 1, 2, 3, 4, 6, 8, 10, 12, 14}
	res := &SweepResult{
		Title:  "Figure 1(c)",
		XLabel: "num (two-third-power, logistic-regression buckets)",
		X:      nums,
	}
	for _, name := range DatasetNames() {
		d, err := r.Dataset(name)
		if err != nil {
			return nil, err
		}
		features, err := mlFeatures(d)
		if err != nil {
			return nil, err
		}
		rng := r.rng(hash("fig1c" + name))
		ys := make([]float64, len(nums))
		for xi, num := range nums {
			var agg average
			for i := 0; i < iters; i++ {
				o, err := runIntelVirtual(ctx, d, cons, num, rng.Split(), features)
				if err != nil {
					return nil, err
				}
				agg.add(o)
			}
			ys[xi] = agg.meanEvals()
		}
		res.Series = append(res.Series, name)
		res.Y = append(res.Y, ys)
	}
	return res, nil
}

// ------------------------------------------------------------- fig2a/fig2b

// AccuracyResult is Figures 2(a)/2(b): per dataset and ρ, one Sweep of
// statements, and the fraction of them whose precision (2a) or recall (2b)
// constraint was satisfied. Both figures count the same statements.
type AccuracyResult struct {
	Title  string
	Metric string // "precision" or "recall": the count String renders
	Rhos   []float64
	Series []string
	// Tallies[s][r] is series s's Sweep at Rhos[r].
	Tallies [][]Tally
}

func (a *AccuracyResult) String() string {
	header := append([]string{"rho"}, a.Series...)
	rows := make([][]string, len(a.Rhos))
	for i := range a.Rhos {
		row := []string{f2(a.Rhos[i])}
		for _, series := range a.Tallies {
			met := series[i].MetR
			if a.Metric == "precision" {
				met = series[i].MetP
			}
			row = append(row, f2(float64(met)/float64(len(series[i].Statements))))
		}
		rows[i] = row
	}
	return textTable(header, rows)
}

// fig2Rhos are Figure 2's x axis.
var fig2Rhos = []float64{0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95}

func runAccuracy(ctx context.Context, r *Runner, metric string) (fmt.Stringer, error) {
	iters := r.iters(100)
	res := &AccuracyResult{Title: "Figure 2(a/b)", Metric: metric, Rhos: fig2Rhos}
	for _, name := range DatasetNames() {
		d, err := r.Dataset(name)
		if err != nil {
			return nil, err
		}
		rng := r.rng(hash("fig2" + name))
		tallies := make([]Tally, len(fig2Rhos))
		for ri, rho := range fig2Rhos {
			cons := core.Constraints{Alpha: r.cfg.Alpha, Beta: r.cfg.Beta, Rho: rho}
			if tallies[ri], err = Sweep(ctx, predictorWorld(d), cons, iters, rng); err != nil {
				return nil, err
			}
		}
		res.Series = append(res.Series, name)
		res.Tallies = append(res.Tallies, tallies)
	}
	return res, nil
}

func runFig2a(ctx context.Context, r *Runner) (fmt.Stringer, error) {
	return runAccuracy(ctx, r, "precision")
}
func runFig2b(ctx context.Context, r *Runner) (fmt.Stringer, error) {
	return runAccuracy(ctx, r, "recall")
}

// ------------------------------------------------------------------ fig2c

func runFig2c(ctx context.Context, r *Runner) (fmt.Stringer, error) {
	iters := r.iters(50)
	alphas := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	ratios := []float64{2.5, 3.5, 4.5}
	d, err := r.Dataset("lc")
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Title: "Figure 2(c)", XLabel: "alpha", X: alphas}
	rng := r.rng(hash("fig2c"))
	for _, ratio := range ratios {
		ys := make([]float64, len(alphas))
		for xi, alpha := range alphas {
			cons := core.Constraints{Alpha: alpha, Beta: r.cfg.Beta, Rho: r.cfg.Rho}
			draw := TwoThirdPower(ratio * alpha)
			var agg average
			for i := 0; i < iters; i++ {
				o, err := runLab(ctx, d, cons, draw, rng.Split())
				if err != nil {
					return nil, err
				}
				agg.add(o)
			}
			ys[xi] = agg.meanEvals()
		}
		res.Series = append(res.Series, fmt.Sprintf("num/alpha=%.1f", ratio))
		res.Y = append(res.Y, ys)
	}
	return res, nil
}

// ------------------------------------------------------------------ fig3a

func runFig3a(ctx context.Context, r *Runner) (fmt.Stringer, error) {
	iters := r.iters(20)
	cons := r.cons()
	cs := []int{50, 100, 250, 500, 1000, 2000, 3500, 5000}
	res := &SweepResult{Title: "Figure 3(a)", XLabel: "c (tuples sampled per group)"}
	for _, c := range cs {
		res.X = append(res.X, float64(c))
	}
	for _, name := range DatasetNames() {
		d, err := r.Dataset(name)
		if err != nil {
			return nil, err
		}
		rng := r.rng(hash("fig3a" + name))
		ys := make([]float64, len(cs))
		for xi, c := range cs {
			// Constant c scales with the dataset scale so reduced runs
			// sweep the same relative range.
			scaled := int(float64(c)*r.cfg.Scale + 0.5)
			if scaled < 1 {
				scaled = 1
			}
			var agg average
			for i := 0; i < iters; i++ {
				o, err := runLab(ctx, d, cons, Fixed(ConstantAllocator{C: scaled}.Allocate), rng.Split())
				if err != nil {
					return nil, err
				}
				agg.add(o)
			}
			ys[xi] = agg.meanEvals()
		}
		res.Series = append(res.Series, name)
		res.Y = append(res.Y, ys)
	}
	return res, nil
}

// ------------------------------------------------------------------ fig3b

func runFig3b(ctx context.Context, r *Runner) (fmt.Stringer, error) {
	iters := r.iters(20)
	cons := r.cons()
	nums := []float64{0.5, 1, 2, 3, 4, 6, 8, 10, 12, 14, 16}
	res := &SweepResult{Title: "Figure 3(b)", XLabel: "num (two-third-power)", X: nums}
	for _, name := range DatasetNames() {
		d, err := r.Dataset(name)
		if err != nil {
			return nil, err
		}
		rng := r.rng(hash("fig3b" + name))
		ys := make([]float64, len(nums))
		for xi, num := range nums {
			var agg average
			for i := 0; i < iters; i++ {
				o, err := runLab(ctx, d, cons, TwoThirdPower(num), rng.Split())
				if err != nil {
					return nil, err
				}
				agg.add(o)
			}
			ys[xi] = agg.meanEvals()
		}
		res.Series = append(res.Series, name)
		res.Y = append(res.Y, ys)
	}
	return res, nil
}

// ------------------------------------------------------------------ fig3c

func runFig3c(ctx context.Context, r *Runner) (fmt.Stringer, error) {
	iters := r.iters(50)
	betas := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	nums := []float64{2.5, 3.5, 4.5}
	d, err := r.Dataset("lc")
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Title: "Figure 3(c)", XLabel: "beta (metric: retrievals)", X: betas}
	rng := r.rng(hash("fig3c"))
	for _, num := range nums {
		ys := make([]float64, len(betas))
		for xi, beta := range betas {
			cons := core.Constraints{Alpha: r.cfg.Alpha, Beta: beta, Rho: r.cfg.Rho}
			draw := TwoThirdPower(num * r.cfg.Alpha)
			var agg average
			for i := 0; i < iters; i++ {
				o, err := runLab(ctx, d, cons, draw, rng.Split())
				if err != nil {
					return nil, err
				}
				agg.add(o)
			}
			ys[xi] = agg.meanRetrievals()
		}
		res.Series = append(res.Series, fmt.Sprintf("num=%.1f", num))
		res.Y = append(res.Y, ys)
	}
	return res, nil
}

func init() {
	register(Experiment{ID: "fig1a", Title: "Evaluations: Naive vs Intel-Sample vs Optimal (Figure 1a)", Run: runFig1a})
	register(Experiment{ID: "fig1b", Title: "Evaluations vs ML baselines (Figure 1b)", Run: runFig1b})
	register(Experiment{ID: "fig1c", Title: "Logistic-regression virtual column sweep (Figure 1c)", Run: runFig1c})
	register(Experiment{ID: "fig2a", Title: "Precision satisfaction vs rho (Figure 2a)", Run: runFig2a})
	register(Experiment{ID: "fig2b", Title: "Recall satisfaction vs rho (Figure 2b)", Run: runFig2b})
	register(Experiment{ID: "fig2c", Title: "Evaluations vs alpha (Figure 2c)", Run: runFig2c})
	register(Experiment{ID: "fig3a", Title: "Constant-sampling sweep (Figure 3a)", Run: runFig3a})
	register(Experiment{ID: "fig3b", Title: "Two-third-power sweep (Figure 3b)", Run: runFig3b})
	register(Experiment{ID: "fig3c", Title: "Retrievals vs beta (Figure 3c)", Run: runFig3c})
}
