package experiments

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
)

// The Perfect-Information problem (Problem 1, Section 3.1): exact per-group
// correct/incorrect counts are known, and each group takes one of three
// deterministic actions — discard, retrieve, or retrieve-and-evaluate — to
// minimize cost subject to exact recall and precision constraints. The paper
// proves this NP-hard by reduction from min-knapsack (Theorem 3.2). This
// file states an instance as a three-action table for core.ChooseActions,
// the exact branch and bound Section 5's planner also runs, and adapts the
// answer to core's constraint, cost and strategy types. The engine never
// runs it (it plans on selectivities, Sections 3.2 onward); Table 1 does.

// Action is the deterministic per-group decision.
type Action uint8

const (
	// Discard drops the whole group: no cost, no output.
	Discard Action = iota
	// Retrieve returns the whole group without evaluating the UDF.
	Retrieve
	// Evaluate retrieves the group and evaluates the UDF on every tuple,
	// returning only matching tuples.
	Evaluate
)

func (a Action) String() string {
	switch a {
	case Discard:
		return "discard"
	case Retrieve:
		return "retrieve"
	case Evaluate:
		return "evaluate"
	default:
		return "invalid"
	}
}

// ErrNoFeasibleAssignment is returned when no action vector satisfies the
// constraints (only possible when α or β exceed what evaluation everywhere
// can deliver, which cannot happen for α,β ≤ 1 — kept for safety).
var ErrNoFeasibleAssignment = errors.New("experiments: no feasible action assignment")

// PerfectInfoGroup is a group with exactly known composition.
type PerfectInfoGroup struct {
	Key     string
	Correct int // Cₐ
	Wrong   int // Wₐ
}

// action returns the table entry of taking act on the group: its cost, its
// recall numerator and its precision slack. Recall: Σ Cₐ·Rₐ ≥ β·ΣCₐ, so both
// Retrieve and Evaluate contribute Cₐ. Precision (Eq. 3), in
// core.ActionCost's slack form: Σ correct − α·(correct + wrong) ≥ 0, where
// Retrieve returns the group's Wₐ wrong tuples too and Evaluate returns none.
func (g PerfectInfoGroup) action(act Action, alpha float64, cost core.CostModel) core.ActionCost {
	c, w := float64(g.Correct), float64(g.Wrong)
	t := float64(g.Correct + g.Wrong)
	switch act {
	case Discard:
		return core.ActionCost{}
	case Retrieve:
		return core.ActionCost{Cost: t * cost.Retrieve, Recall: c, Slack: c - alpha*(c+w)}
	default: // Evaluate
		return core.ActionCost{Cost: t * (cost.Retrieve + cost.Evaluate), Recall: c, Slack: c - alpha*c}
	}
}

// byDensity orders the groups by decreasing "value density" Cₐ/(Cₐ+Wₐ),
// larger groups first on ties, so the search finds good incumbents early.
func byDensity(groups []PerfectInfoGroup) []int {
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	density := func(g PerfectInfoGroup) (s, t float64) {
		t = float64(g.Correct + g.Wrong)
		if t > 0 {
			s = float64(g.Correct) / t
		}
		return s, t
	}
	sort.Slice(order, func(x, y int) bool {
		si, ti := density(groups[order[x]])
		sj, tj := density(groups[order[y]])
		if si != sj {
			return si > sj
		}
		return ti > tj
	})
	return order
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
// given exact Cₐ/Wₐ counts, by core.ChooseActions over each group's three
// actions. Groups are handed over in decreasing density order (byDensity).
// Runtime is worst-case exponential in the number of groups (the problem
// is NP-hard), but the pruning keeps instances with dozens of groups fast
// in practice. At α = 0 the precision constraint never binds.
func SolvePerfectInformation(groups []PerfectInfoGroup, cons core.Constraints, cost core.CostModel) (PerfectInfoPlan, error) {
	if len(groups) == 0 {
		return PerfectInfoPlan{}, fmt.Errorf("experiments: no groups")
	}
	if err := cons.Validate(); err != nil {
		return PerfectInfoPlan{}, err
	}
	if err := cost.Validate(); err != nil {
		return PerfectInfoPlan{}, err
	}
	for i, g := range groups {
		if g.Correct < 0 || g.Wrong < 0 {
			return PerfectInfoPlan{}, fmt.Errorf("experiments: group %d has negative counts", i)
		}
	}
	order := byDensity(groups)
	table := make([][]core.ActionCost, len(groups))
	totalCorrect := 0
	for k, i := range order {
		totalCorrect += groups[i].Correct
		table[k] = make([]core.ActionCost, Evaluate+1)
		for a := range table[k] {
			table[k][a] = groups[i].action(Action(a), cons.Alpha, cost)
		}
	}
	pick, best, ok := core.ChooseActions(table, cons.Beta*float64(totalCorrect))
	if !ok {
		// Evaluating everything always satisfies both constraints
		// (precision 1, recall 1), so this is unreachable for valid input.
		return PerfectInfoPlan{}, ErrNoFeasibleAssignment
	}
	acts := make([]Action, len(groups))
	for k, i := range order {
		acts[i] = Action(pick[k])
	}
	return PerfectInfoPlan{Actions: acts, Cost: best}, nil
}
