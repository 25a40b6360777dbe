package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
)

// The lab: the one place outside internal/engine that sequences the paper's
// pipeline (sample → estimate → Convex Prog. 4.1 → execute) by hand. The
// engine fixes the sampling allocator at TwoThirdPower(2.5·α); the
// experiments whose subject is that allocator (fig1c, fig2c, fig3a–c,
// adaptive, and the sampling half of the planner ablations) vary it here.
// With the engine's allocator the lab and the engine agree on every row and
// every counter (TestLabMatchesEngineAtDefaultAllocator), so a number the
// lab prints differs from the system's only by the allocator under study.
// The perfect-selectivity oracle lives here too: it shares the executor and
// nothing else runs it.

// Instance is what the lab and the reference algorithms are handed: the
// grouped relation, the expensive predicate and the user's contract. Costs
// are core.DefaultCost throughout the reproduction.
type Instance struct {
	Groups []core.Group
	// Meter is the expensive predicate behind a fresh meter: every call a
	// run makes is charged to it, once per row.
	Meter *core.Meter
	Cons  core.Constraints
}

// Validate checks the instance is runnable.
func (in Instance) Validate() error {
	if len(in.Groups) == 0 {
		return fmt.Errorf("experiments: instance has no groups")
	}
	if in.Meter == nil {
		return fmt.Errorf("experiments: instance has no UDF")
	}
	return in.Cons.Validate()
}

// rows lists every tuple of the instance, group-major.
func (in Instance) rows() []int {
	var all []int
	for _, g := range in.Groups {
		all = append(all, g.Rows...)
	}
	return all
}

// Run is one algorithm run — the engine's, the lab's, a baseline's or an
// oracle's — in the engine's accounting.
type Run struct {
	// Rows is the answer (row ids).
	Rows []int
	// Evaluations counts every UDF call charged, sampling included.
	Evaluations int
	// Retrievals counts every tuple fetched, sampling included.
	Retrievals int
	// Sampled counts the tuples examined to estimate selectivities.
	Sampled int
	// Cost is Retrievals·o_r + Evaluations·o_e.
	Cost float64
}

// Draw is the lab's subject: how much the sampler examines per group, given
// the group sizes.
type Draw func(ctx context.Context, s *core.Sampler, sizes []int) error

// Fixed draws one fixed allocation.
func Fixed(allocate func(sizes []int) []int) Draw {
	return func(ctx context.Context, s *core.Sampler, sizes []int) error {
		_, err := s.TopUpCtx(ctx, allocate(sizes))
		return err
	}
}

// TwoThirdPower draws Fₐ = num·tₐ·n^(−1/3) tuples from group a
// (Section 4.2).
func TwoThirdPower(num float64) Draw {
	return Fixed(core.TwoThirdPowerAllocator{Num: num}.Allocate)
}

// EngineDraw is the allocation internal/engine samples with,
// core.DefaultAllocator: TwoThirdPower(2.5·α), the paper's recommended
// setting.
func EngineDraw(alpha float64) Draw { return Fixed(core.DefaultAllocator(alpha).Allocate) }

// ConstantAllocator samples the same number of tuples from every group
// (capped by group size) — the Constant(c) scheme of Section 6.3.
type ConstantAllocator struct{ C int }

// Allocate returns the target sample count per group.
func (a ConstantAllocator) Allocate(sizes []int) []int {
	out := make([]int, len(sizes))
	for i, t := range sizes {
		out[i] = min(a.C, t)
	}
	return out
}

func (a ConstantAllocator) String() string { return fmt.Sprintf("constant(%d)", a.C) }

// AdaptiveOptions tunes AdaptiveTwoThirdPower.
type AdaptiveOptions struct {
	// StartNum is the initial num value (default 0.5·α, with α from the
	// constraints; the paper observes the optimum scales with α).
	StartNum float64
	// GrowthFactor multiplies num each round (default 1.4).
	GrowthFactor float64
	// MaxNum stops the search (default 20).
	MaxNum float64
	// Patience is how many consecutive cost increases end the search
	// (default 2).
	Patience int
}

func (o *AdaptiveOptions) fill(alpha float64) {
	if o.StartNum <= 0 {
		o.StartNum = 0.5 * alpha
		if o.StartNum <= 0 {
			o.StartNum = 0.5
		}
	}
	if o.GrowthFactor <= 1 {
		o.GrowthFactor = 1.4
	}
	if o.MaxNum <= 0 {
		o.MaxNum = 20
	}
	if o.Patience <= 0 {
		o.Patience = 2
	}
}

// AdaptiveTwoThirdPower implements the Section 4.3 adaptive scheme: start
// with a small num, repeatedly enlarge the sample, re-solve Convex
// Prog. 4.1, and track the estimated total cost (sampling already paid +
// planned execution). When the cost estimate has risen Patience times in a
// row, stop. The sampler retains all evaluations, so the final state is
// ready for planning and execution. Returns the num value whose cost
// estimate was lowest.
//
// The engine does not run it: whether it beats the fixed 2.5·α outside the
// noise is ROADMAP item 2(c)'s open question, and the adaptive experiment is
// where that is measured.
func AdaptiveTwoThirdPower(ctx context.Context, s *core.Sampler, sizes []int, cons core.Constraints, opts AdaptiveOptions) (float64, error) {
	opts.fill(cons.Alpha)
	cost := core.DefaultCost
	bestNum := opts.StartNum
	bestCost := math.Inf(1)
	rises := 0
	prev := math.Inf(1)
	for num := opts.StartNum; num <= opts.MaxNum; num *= opts.GrowthFactor {
		alloc := core.TwoThirdPowerAllocator{Num: num}.Allocate(sizes)
		if _, err := s.TopUpCtx(ctx, alloc); err != nil {
			return bestNum, err
		}
		infos := s.Infos()
		strat, err := core.PlanWithSamples(infos, cons, cost)
		if err != nil {
			return bestNum, err
		}
		sunk := float64(s.TotalSampled()) * (cost.Retrieve + cost.Evaluate)
		est := sunk + strat.ExpectedCost(infos, cost)
		if est < bestCost {
			bestCost = est
			bestNum = num
		}
		if est > prev {
			rises++
			if rises >= opts.Patience {
				break
			}
		} else {
			rises = 0
		}
		prev = est
	}
	return bestNum, nil
}

// labSample is the sampling half of the pipeline, as the engine draws it: a
// sampler on key's sample sub-key, then the draw under study.
func labSample(ctx context.Context, in Instance, draw Draw, key stats.Key) (*core.Sampler, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	sampler := core.NewJointSampler(in.Groups, []*core.Meter{in.Meter}, key.Sub(core.SampleDraw))
	sizes := make([]int, len(in.Groups))
	for i, g := range in.Groups {
		sizes[i] = len(g.Rows)
	}
	if err := draw(ctx, sampler, sizes); err != nil {
		return nil, err
	}
	return sampler, nil
}

// Lab runs Intel-Sample with the given draw under a statement's key: sample,
// plan with Convex Prog. 4.1, execute on the key's coin sub-key, and account
// as the engine does (each sampled row is a retrieval; calls are what the
// meter charged).
func Lab(ctx context.Context, in Instance, draw Draw, key stats.Key) (Run, error) {
	sampler, err := labSample(ctx, in, draw, key)
	if err != nil {
		return Run{}, err
	}
	cost := core.DefaultCost
	strat, err := core.PlanWithSamples(sampler.Infos(), in.Cons, cost)
	if err != nil {
		return Run{}, err
	}
	exec, err := core.ExecuteSpansParallelCtx(ctx, in.Groups, strat, nil, sampler.Outcomes(), []*core.Meter{in.Meter}, cost, key.Sub(core.ExecuteDraw), 1)
	if err != nil {
		return Run{}, err
	}
	sort.Ints(exec.Output)
	run := Run{
		Rows:        exec.Output,
		Evaluations: in.Meter.Calls(),
		Sampled:     sampler.TotalSampled(),
	}
	run.Retrievals = run.Sampled + exec.Retrieved
	run.Cost = float64(run.Retrievals)*cost.Retrieve + float64(run.Evaluations)*cost.Evaluate
	return run, nil
}

// RunPerfectSelectivities runs the "Optimal" reference algorithm of the
// experiments: selectivities are computed exactly from the oracle (at no
// charge — this baseline is deliberately unrealistic) and the Section 3.2
// plan is executed. truth must answer without cost.
func RunPerfectSelectivities(ctx context.Context, in Instance, truth func(row int) bool, rng *stats.RNG) (Run, error) {
	if err := in.Validate(); err != nil {
		return Run{}, err
	}
	infos := make([]core.GroupInfo, len(in.Groups))
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
		infos[i] = core.GroupInfo{Size: len(g.Rows), Selectivity: sel}
	}
	strat, err := core.PlanPerfectSelectivities(infos, in.Cons, core.DefaultCost)
	if err != nil {
		return Run{}, err
	}
	exec, err := core.ExecuteParallelCtx(ctx, in.Groups, strat, nil, in.Meter, core.DefaultCost, rng, 1)
	if err != nil {
		return Run{}, err
	}
	return Run{Rows: exec.Output, Evaluations: exec.Evaluated, Retrievals: exec.Retrieved, Cost: exec.Cost}, nil
}
