package core

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Section 5 extensions: a fixed cost budget with recall as the objective,
// and conjunctions of two expensive predicates. Selection followed by a
// join, where output tuples count with their join multiplicity, is the
// weighted Convex Prog. 4.1 (PlanSelectJoin, estimated.go).

// BudgetPlan is the result of PlanBudget.
type BudgetPlan struct {
	Strategy Strategy
	// AchievedBeta is the highest recall bound for which the plan's cost
	// fits the budget.
	AchievedBeta float64
}

// PlanBudget solves the alternate objective of Section 5/Appendix 10.7.1:
// maximize recall subject to precision ≥ α and cost ≤ budget, each with
// probability ρ (the paper bounds the expected cost, which a plan spending
// its budget on coins overruns half the time; costBound). It binary-searches
// the recall bound β and plans each candidate with PlanWithSamples, the
// planner the engine runs.
func PlanBudget(groups []GroupInfo, alpha, rho, budget float64, cost CostModel) (BudgetPlan, error) {
	if budget < 0 {
		return BudgetPlan{}, fmt.Errorf("core: negative budget %v", budget)
	}
	plan := func(beta float64) (Strategy, float64, error) {
		s, err := PlanWithSamples(groups, Constraints{Alpha: alpha, Beta: beta, Rho: rho}, cost)
		if err != nil {
			return Strategy{}, 0, err
		}
		return s, costBound(s, groups, cost, rho), nil
	}
	// β=1 may fit the budget outright. β=0 always does: discarding every
	// remaining tuple costs nothing and has deviation exactly 0, and the
	// sampled positives alone meet both constraints at β=0.
	s1, c1, err := plan(1)
	if err != nil {
		return BudgetPlan{}, err
	}
	if c1 <= budget {
		return BudgetPlan{Strategy: s1, AchievedBeta: 1}, nil
	}
	lo, hi := 0.0, 1.0
	best, bestBeta := NewStrategy(len(groups)), 0.0
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		s, c, err := plan(mid)
		if err != nil {
			return BudgetPlan{}, err
		}
		if c <= budget {
			lo = mid
			best, bestBeta = s, mid
		} else {
			hi = mid
		}
	}
	return BudgetPlan{Strategy: best, AchievedBeta: bestBeta}, nil
}

// costBound is the cost s stays within with probability ρ (Cantelli). An
// unsampled row costs o_r·X_r + o_e·X_e, X_r ~ Bernoulli(R), X_e ≤ X_r ~
// Bernoulli(E): variance o_r²R(1−R) + o_e²E(1−E) + 2·o_r·o_e·E(1−R).
func costBound(s Strategy, groups []GroupInfo, cost CostModel, rho float64) float64 {
	o, e, v := cost.Retrieve, cost.Evaluate, 0.0
	for i, g := range groups {
		r, ev := s.R[i], s.E[i]
		v += float64(g.Remaining()) * (o*o*r*(1-r) + e*e*ev*(1-ev) + 2*o*e*ev*(1-r))
	}
	return s.ExpectedCost(groups, cost) + stats.CantelliMultiplier(rho)*math.Sqrt(v)
}

// TwoPredGroup describes one group for a conjunction of two expensive
// predicates f1 AND f2 by its joint cells: the per-tuple probabilities that
// both hold, that only f1 holds and that only f2 holds (neither holding is
// the remainder). The cells carry whatever correlation the two predicates
// have within the group; nothing assumes they are independent.
type TwoPredGroup struct {
	Size  int
	Both  float64 // P(f1 ∧ f2) per tuple
	Only1 float64 // P(f1 ∧ ¬f2)
	Only2 float64 // P(¬f1 ∧ f2)
}

// TwoPredAction is the per-group decision for two predicates. A predicate
// is either assumed true (no UDF call) or evaluated (tuples failing it are
// dropped); or the whole group is discarded.
type TwoPredAction uint8

// The five per-group actions of the two-predicate extension.
const (
	TPDiscard      TwoPredAction = iota // drop the group
	TPAssumeBoth                        // return all tuples, no UDF calls
	TPEval1Assume2                      // evaluate f1, assume f2
	TPAssume1Eval2                      // assume f1, evaluate f2
	TPEvalBoth                          // evaluate f1, then f2 on survivors
)

func (a TwoPredAction) String() string {
	switch a {
	case TPDiscard:
		return "discard"
	case TPAssumeBoth:
		return "assume-both"
	case TPEval1Assume2:
		return "eval-1"
	case TPAssume1Eval2:
		return "eval-2"
	case TPEvalBoth:
		return "eval-both"
	default:
		return "invalid"
	}
}

// twoPredStats returns, per tuple of the group under the action:
// (cost, expected correct output, expected incorrect output).
// A tuple is correct iff both predicates hold.
func twoPredStats(g TwoPredGroup, a TwoPredAction, cost CostModel) (c, correct, wrong float64) {
	switch a {
	case TPDiscard:
		return 0, 0, 0
	case TPAssumeBoth:
		return cost.Retrieve, g.Both, 1 - g.Both
	case TPEval1Assume2:
		// Output iff f1 passes; incorrect when f1 passes but f2 fails.
		return cost.Retrieve + cost.Evaluate, g.Both, g.Only1
	case TPAssume1Eval2:
		return cost.Retrieve + cost.Evaluate, g.Both, g.Only2
	default: // TPEvalBoth: f2 evaluated only on f1 survivors.
		return cost.Retrieve + cost.Evaluate*(1+g.Both+g.Only1), g.Both, 0
	}
}

// PlanTwoPredicates chooses one action per group minimizing expected cost
// while satisfying the precision and recall constraints in expectation
// (the Section 5 sketch; probability-ρ margins can be layered on by
// tightening α and β before the call). Exact search: each group's five
// actions go to ChooseActions.
func PlanTwoPredicates(groups []TwoPredGroup, cons Constraints, cost CostModel) ([]TwoPredAction, float64, error) {
	if len(groups) == 0 {
		return nil, 0, fmt.Errorf("core: no groups")
	}
	if err := cons.Validate(); err != nil {
		return nil, 0, err
	}
	table := make([][]ActionCost, len(groups))
	totalCorrect := 0.0
	for i, g := range groups {
		t := float64(g.Size)
		totalCorrect += t * g.Both
		table[i] = make([]ActionCost, TPEvalBoth+1)
		for a := range table[i] {
			c, corr, wrong := twoPredStats(g, TwoPredAction(a), cost)
			table[i][a] = ActionCost{Cost: t * c, Recall: t * corr, Slack: t * (corr - cons.Alpha*(corr+wrong))}
		}
	}
	pick, best, ok := ChooseActions(table, cons.Beta*totalCorrect)
	if !ok {
		return nil, 0, fmt.Errorf("core: no feasible two-predicate plan")
	}
	acts := make([]TwoPredAction, len(pick))
	for i, a := range pick {
		acts[i] = TwoPredAction(a)
	}
	return acts, best, nil
}
