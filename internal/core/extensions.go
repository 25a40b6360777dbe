package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Section 5 extensions: a fixed cost budget with recall as the objective,
// conjunctions of two expensive predicates, and selection followed by a
// join (where output tuples count with their join multiplicity).

// BudgetPlan is the result of PlanBudget.
type BudgetPlan struct {
	Strategy Strategy
	// AchievedBeta is the highest recall bound for which the plan's cost
	// fits the budget.
	AchievedBeta float64
}

// PlanBudget solves the alternate objective of Section 5/Appendix 10.7.1:
// maximize recall subject to precision ≥ α (with probability ρ) and
// expected cost ≤ budget. It binary-searches the recall bound β and plans
// each candidate with PlanWithSamples, the planner the engine runs.
func PlanBudget(groups []GroupInfo, alpha, rho, budget float64, cost CostModel) (BudgetPlan, error) {
	if budget < 0 {
		return BudgetPlan{}, fmt.Errorf("core: negative budget %v", budget)
	}
	plan := func(beta float64) (Strategy, float64, error) {
		s, err := PlanWithSamples(groups, Constraints{Alpha: alpha, Beta: beta, Rho: rho}, cost)
		if err != nil {
			return Strategy{}, 0, err
		}
		return s, s.ExpectedCost(groups, cost), nil
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
// tightening α and β before the call). Exact search via branch and bound.
func PlanTwoPredicates(groups []TwoPredGroup, cons Constraints, cost CostModel) ([]TwoPredAction, float64, error) {
	if len(groups) == 0 {
		return nil, 0, fmt.Errorf("core: no groups")
	}
	if err := cons.Validate(); err != nil {
		return nil, 0, err
	}
	n := len(groups)
	actions := []TwoPredAction{TPDiscard, TPAssumeBoth, TPEval1Assume2, TPAssume1Eval2, TPEvalBoth}

	// Per group and action: cost, recall contribution, precision slack
	// contribution correct − α(correct+wrong).
	costs := make([][]float64, n)
	recalls := make([][]float64, n)
	precs := make([][]float64, n)
	totalCorrect := 0.0
	for i, g := range groups {
		t := float64(g.Size)
		totalCorrect += t * g.Both
		costs[i] = make([]float64, len(actions))
		recalls[i] = make([]float64, len(actions))
		precs[i] = make([]float64, len(actions))
		for ai, a := range actions {
			c, corr, wrong := twoPredStats(g, a, cost)
			costs[i][ai] = t * c
			recalls[i][ai] = t * corr
			precs[i][ai] = t * (corr - cons.Alpha*(corr+wrong))
		}
	}
	gamma := cons.Beta * totalCorrect

	// Optimistic suffix bounds for pruning.
	sufRecall := make([]float64, n+1)
	sufPrec := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		br, bp := 0.0, 0.0
		for ai := range actions {
			br = math.Max(br, recalls[i][ai])
			bp = math.Max(bp, precs[i][ai])
		}
		sufRecall[i] = sufRecall[i+1] + br
		sufPrec[i] = sufPrec[i+1] + bp
	}

	best := math.Inf(1)
	var bestActs []TwoPredAction
	acts := make([]TwoPredAction, n)
	var dfs func(i int, c, recall, prec float64)
	dfs = func(i int, c, recall, prec float64) {
		if c >= best {
			return
		}
		if recall+sufRecall[i] < gamma-1e-9 || prec+sufPrec[i] < -1e-9 {
			return
		}
		if i == n {
			best = c
			bestActs = append([]TwoPredAction(nil), acts...)
			return
		}
		// Cheap actions first for early incumbents.
		order := []int{0, 1, 2, 3, 4}
		sort.Slice(order, func(x, y int) bool { return costs[i][order[x]] < costs[i][order[y]] })
		for _, ai := range order {
			acts[i] = actions[ai]
			dfs(i+1, c+costs[i][ai], recall+recalls[i][ai], prec+precs[i][ai])
		}
		acts[i] = TPDiscard
	}
	dfs(0, 0, 0, 0)
	if bestActs == nil {
		return nil, 0, fmt.Errorf("core: no feasible two-predicate plan")
	}
	return bestActs, best, nil
}

// JoinGroup describes one (correlated-value, join-key) subgroup for the
// selection-before-join extension: its tuples match JoinWeight tuples of
// the joined table, so each output tuple counts JoinWeight times toward
// join-result precision and recall while costing the same to retrieve or
// evaluate.
type JoinGroup struct {
	Size        int
	Selectivity float64
	JoinWeight  float64 // n_j ≥ 0
}

// PlanSelectJoin plans retrieval/evaluation probabilities per subgroup so
// the join result meets the precision and recall constraints with
// probability ρ. The linear program is Linear-Prog. 3.4 with every
// contribution weighted by n_j; Hoeffding ranges scale with n_j as well.
func PlanSelectJoin(groups []JoinGroup, cons Constraints, cost CostModel) (Strategy, error) {
	if len(groups) == 0 {
		return Strategy{}, fmt.Errorf("core: no groups")
	}
	if err := cons.Validate(); err != nil {
		return Strategy{}, err
	}
	infos := make([]GroupInfo, len(groups))
	wt := make(weights, len(groups))
	// Hoeffding: per-tuple indicators now span ranges proportional to n_j,
	// so Σ(bᵢ−aᵢ)² = Σ tₐ·n_j².
	sumSq := 0.0
	weightedCorrect := 0.0
	for i, g := range groups {
		if g.JoinWeight < 0 {
			return Strategy{}, fmt.Errorf("core: negative join weight %v", g.JoinWeight)
		}
		infos[i] = GroupInfo{Size: g.Size, Selectivity: g.Selectivity}
		wt[i] = g.JoinWeight
		sumSq += float64(g.Size) * g.JoinWeight * g.JoinWeight
		weightedCorrect += g.JoinWeight * float64(g.Size) * g.Selectivity
	}
	hp := stats.HoeffdingMargin(sumSq, 1, cons.Rho)
	hr := stats.HoeffdingMargin(sumSq, 1-cons.Beta, cons.Rho)
	recallTarget := cons.Beta*weightedCorrect + hr
	return biGreedy(infos, greedyOrder(infos, wt), cons.Alpha, recallTarget, hp, wt), nil
}
