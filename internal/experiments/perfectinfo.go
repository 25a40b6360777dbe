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

// PerfectInfoInstance describes a Problem 1 instance. Correct[i] and
// Wrong[i] are the exact counts Cₐ and Wₐ for group i; RetrieveCost and
// EvaluateCost are o_r and o_e.
type PerfectInfoInstance struct {
	Correct      []int
	Wrong        []int
	Alpha        float64 // precision lower bound α
	Beta         float64 // recall lower bound β
	RetrieveCost float64 // o_r
	EvaluateCost float64 // o_e
}

// ErrNoFeasibleAssignment is returned when no action vector satisfies the
// constraints (only possible when α or β exceed what evaluation everywhere
// can deliver, which cannot happen for α,β ≤ 1 — kept for safety).
var ErrNoFeasibleAssignment = errors.New("experiments: no feasible action assignment")

// groupOrder sorts groups by decreasing "value density" Cₐ/(Cₐ+Wₐ) so the
// search finds good incumbents early.
func (p PerfectInfoInstance) groupOrder() []int {
	order := make([]int, len(p.Correct))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		i, j := order[x], order[y]
		ti := float64(p.Correct[i] + p.Wrong[i])
		tj := float64(p.Correct[j] + p.Wrong[j])
		si, sj := 0.0, 0.0
		if ti > 0 {
			si = float64(p.Correct[i]) / ti
		}
		if tj > 0 {
			sj = float64(p.Correct[j]) / tj
		}
		if si != sj {
			return si > sj
		}
		return ti > tj
	})
	return order
}

// cost returns the cost of taking action act on group i.
func (p PerfectInfoInstance) cost(i int, act Action) float64 {
	t := float64(p.Correct[i] + p.Wrong[i])
	switch act {
	case Discard:
		return 0
	case Retrieve:
		return t * p.RetrieveCost
	default:
		return t * (p.RetrieveCost + p.EvaluateCost)
	}
}

// contribution returns the (recall numerator, precision slack) contribution
// of taking action act on group i. Recall: Σ Cₐ·Rₐ ≥ β·ΣCₐ, so both Retrieve
// and Evaluate contribute Cₐ. Precision (Eq. 3), in core.ActionCost's slack
// form: Σ correct − α·(correct + wrong) ≥ 0, where Retrieve returns the
// group's Wₐ wrong tuples too and Evaluate returns none.
func (p PerfectInfoInstance) contribution(i int, act Action) (recall, slack float64) {
	c, w := float64(p.Correct[i]), float64(p.Wrong[i])
	switch act {
	case Discard:
		return 0, 0
	case Retrieve:
		return c, c - p.Alpha*(c+w)
	default: // Evaluate
		return c, c - p.Alpha*c
	}
}

// SolvePerfectInfo finds the minimum-cost deterministic action assignment,
// exactly, with core.ChooseActions over each group's three actions. Groups
// are handed over in decreasing selectivity order, so the search finds good
// incumbents early.
//
// Runtime is worst-case exponential in the number of groups (the problem is
// NP-hard), but the pruning keeps instances with dozens of groups fast in
// practice. At α = 0 the precision constraint never binds.
func SolvePerfectInfo(p PerfectInfoInstance) ([]Action, float64, error) {
	n := len(p.Correct)
	if len(p.Wrong) != n {
		return nil, 0, errors.New("experiments: Correct/Wrong length mismatch")
	}
	order := p.groupOrder()
	table := make([][]core.ActionCost, n)
	totalCorrect := 0
	for k, i := range order {
		totalCorrect += p.Correct[i]
		table[k] = make([]core.ActionCost, Evaluate+1)
		for a := range table[k] {
			r, slack := p.contribution(i, Action(a))
			table[k][a] = core.ActionCost{Cost: p.cost(i, Action(a)), Recall: r, Slack: slack}
		}
	}
	pick, best, ok := core.ChooseActions(table, p.Beta*float64(totalCorrect))
	if !ok {
		// Evaluating everything always satisfies both constraints
		// (precision 1, recall 1), so this is unreachable for valid input.
		return nil, 0, ErrNoFeasibleAssignment
	}
	acts := make([]Action, n)
	for k, i := range order {
		acts[i] = Action(pick[k])
	}
	return acts, best, nil
}

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
