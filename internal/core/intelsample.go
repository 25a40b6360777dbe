package core

import (
	"context"
	"fmt"

	"repro/internal/stats"
)

// This file wires the pieces into the paper's end-to-end algorithm,
// Intel-Sample (Section 6.2): sample per group to estimate selectivities,
// solve Convex Prog. 4.1, then execute the resulting strategy.

// Instance is a query instance: the grouped relation, the expensive
// predicate, and the user's constraints and costs.
type Instance struct {
	Groups []Group
	UDF    UDF
	Cons   Constraints
	Cost   CostModel
}

// Validate checks the instance is runnable.
func (in Instance) Validate() error {
	if len(in.Groups) == 0 {
		return fmt.Errorf("core: instance has no groups")
	}
	if in.UDF == nil {
		return fmt.Errorf("core: instance has no UDF")
	}
	if err := in.Cons.Validate(); err != nil {
		return err
	}
	return in.Cost.Validate()
}

// TotalRows counts the tuples across groups.
func (in Instance) TotalRows() int {
	total := 0
	for _, g := range in.Groups {
		total += len(g.Rows)
	}
	return total
}

// RunOptions tunes RunIntelSample.
type RunOptions struct {
	// Alloc is the sampling allocator; default TwoThirdPower with
	// num = 2.5·α (the paper's recommended setting).
	Alloc Allocator
	// Adaptive, when true, ignores Alloc and runs the Section 4.3 adaptive
	// num search instead.
	Adaptive bool
	// AdaptiveOpts tunes the adaptive search (used only when Adaptive).
	AdaptiveOpts AdaptiveOptions
	// Model selects the correlation bound; default IndependentGroups
	// (correct for per-group sampling).
	Model CorrelationModel
	// RNG drives sampling and execution coins; required.
	RNG *stats.RNG
}

// RunResult reports everything the experiments need about one run.
type RunResult struct {
	// Strategy is the plan that was executed.
	Strategy Strategy
	// Infos are the estimated group statistics the plan was built from.
	Infos []GroupInfo
	// Output is the approximate query answer (row ids).
	Output []int
	// SampledTuples is the number of UDF calls spent on estimation.
	SampledTuples int
	// Retrieved / Evaluated count execution-phase work (excluding
	// sampling).
	Retrieved, Evaluated int
	// TotalEvaluations = SampledTuples + Evaluated: every UDF call made.
	TotalEvaluations int
	// TotalRetrievals counts every tuple fetched (sampling + execution).
	TotalRetrievals int
	// TotalCost is the full cost including sampling.
	TotalCost float64
}

// RunIntelSample executes the Intel-Sample algorithm on the instance:
// sample → estimate → plan (Convex Prog. 4.1) → execute.
func RunIntelSample(ctx context.Context, in Instance, opts RunOptions) (RunResult, error) {
	if err := in.Validate(); err != nil {
		return RunResult{}, err
	}
	if opts.RNG == nil {
		return RunResult{}, fmt.Errorf("core: RunOptions.RNG is required")
	}
	if opts.Alloc == nil {
		opts.Alloc = TwoThirdPowerAllocator{Num: 2.5 * in.Cons.Alpha}
	}

	meter := NewMeter(in.UDF)
	sampler := NewSampler(in.Groups, meter, opts.RNG.Split())

	if opts.Adaptive {
		if _, err := AdaptiveTwoThirdPower(ctx, sampler, in.Cons, in.Cost, opts.AdaptiveOpts); err != nil {
			return RunResult{}, err
		}
	} else {
		sizes := make([]int, len(in.Groups))
		for i, g := range in.Groups {
			sizes[i] = len(g.Rows)
		}
		if _, err := sampler.TopUpCtx(ctx, opts.Alloc.Allocate(sizes)); err != nil {
			return RunResult{}, err
		}
	}

	infos := sampler.Infos()
	strat, err := PlanEstimated(infos, in.Cons, in.Cost, opts.Model)
	if err != nil {
		return RunResult{}, err
	}

	exec, err := ExecuteParallelCtx(ctx, in.Groups, strat, sampler.Outcomes(), meter, in.Cost, opts.RNG.Split(), 1)
	if err != nil {
		return RunResult{}, err
	}

	sampled := sampler.TotalSampled()
	res := RunResult{
		Strategy:         strat,
		Infos:            infos,
		Output:           exec.Output,
		SampledTuples:    sampled,
		Retrieved:        exec.Retrieved,
		Evaluated:        exec.Evaluated,
		TotalEvaluations: sampled + exec.Evaluated,
		TotalRetrievals:  sampled + exec.Retrieved,
		TotalCost:        float64(sampled)*(in.Cost.Retrieve+in.Cost.Evaluate) + exec.Cost,
	}
	return res, nil
}

// RunPerfectSelectivities runs the "Optimal" reference algorithm of the
// experiments: selectivities are computed exactly from the oracle (at no
// charge — this baseline is deliberately unrealistic) and the Section 3.2
// plan is executed. truth must answer without cost.
func RunPerfectSelectivities(ctx context.Context, in Instance, truth func(row int) bool, rng *stats.RNG) (RunResult, error) {
	if err := in.Validate(); err != nil {
		return RunResult{}, err
	}
	infos := make([]GroupInfo, len(in.Groups))
	for i, g := range in.Groups {
		correct := 0
		for _, row := range g.Rows {
			if truth(row) {
				correct++
			}
		}
		sel := 0.0
		if len(g.Rows) > 0 {
			sel = float64(correct) / float64(len(g.Rows))
		}
		infos[i] = GroupInfo{Size: len(g.Rows), Selectivity: sel}
	}
	strat, err := PlanPerfectSelectivities(infos, in.Cons, in.Cost)
	if err != nil {
		return RunResult{}, err
	}
	exec, err := ExecuteParallelCtx(ctx, in.Groups, strat, nil, in.UDF, in.Cost, rng, 1)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{
		Strategy:         strat,
		Infos:            infos,
		Output:           exec.Output,
		Retrieved:        exec.Retrieved,
		Evaluated:        exec.Evaluated,
		TotalEvaluations: exec.Evaluated,
		TotalRetrievals:  exec.Retrieved,
		TotalCost:        exec.Cost,
	}, nil
}
