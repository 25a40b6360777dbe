package experiments

import (
	"fmt"

	"repro/internal/core"
)

// This file wraps the Section 3.1 Perfect-Information problem: exact
// per-group correct/incorrect counts are known, decisions are deterministic
// (0/1), and the optimization is NP-hard (Theorem 3.2, by reduction from
// min-knapsack). The exact optimizer is branchbound.go; this file adapts it
// to core's constraint, cost and strategy types.

// PerfectInfoGroup is a group with exactly known composition.
type PerfectInfoGroup struct {
	Key     string
	Correct int // Cₐ
	Wrong   int // Wₐ
}

// PerfectInfoPlan is the deterministic plan for the perfect-information
// problem.
type PerfectInfoPlan struct {
	Actions []Action
	Cost    float64
}

// Strategy converts the deterministic actions to the probabilistic strategy
// representation (probabilities 0 or 1), so the shared executor can run it.
func (p PerfectInfoPlan) Strategy() core.Strategy {
	s := core.NewStrategy(len(p.Actions))
	for i, a := range p.Actions {
		switch a {
		case Retrieve:
			s.R[i] = 1
		case Evaluate:
			s.R[i], s.E[i] = 1, 1
		}
	}
	return s
}

// SolvePerfectInformation solves Problem 1 exactly: minimum-cost
// deterministic actions satisfying the precision and recall constraints
// given exact Cₐ/Wₐ counts. Exponential worst case (the problem is
// NP-hard) but fast in practice for realistic group counts.
func SolvePerfectInformation(groups []PerfectInfoGroup, cons core.Constraints, cost core.CostModel) (PerfectInfoPlan, error) {
	inst, err := perfectInfoInstance(groups, cons, cost)
	if err != nil {
		return PerfectInfoPlan{}, err
	}
	acts, c, err := SolvePerfectInfo(inst)
	if err != nil {
		return PerfectInfoPlan{}, err
	}
	return PerfectInfoPlan{Actions: acts, Cost: c}, nil
}

func perfectInfoInstance(groups []PerfectInfoGroup, cons core.Constraints, cost core.CostModel) (PerfectInfoInstance, error) {
	if len(groups) == 0 {
		return PerfectInfoInstance{}, fmt.Errorf("experiments: no groups")
	}
	if err := cons.Validate(); err != nil {
		return PerfectInfoInstance{}, err
	}
	if err := cost.Validate(); err != nil {
		return PerfectInfoInstance{}, err
	}
	inst := PerfectInfoInstance{
		Correct:      make([]int, len(groups)),
		Wrong:        make([]int, len(groups)),
		Alpha:        cons.Alpha,
		Beta:         cons.Beta,
		RetrieveCost: cost.Retrieve,
		EvaluateCost: cost.Evaluate,
	}
	for i, g := range groups {
		if g.Correct < 0 || g.Wrong < 0 {
			return PerfectInfoInstance{}, fmt.Errorf("experiments: group %d has negative counts", i)
		}
		inst.Correct[i] = g.Correct
		inst.Wrong[i] = g.Wrong
	}
	return inst, nil
}
