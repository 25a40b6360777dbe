package experiments

import (
	"errors"
	"math"
	"sort"
)

// The Perfect-Information problem (Problem 1, Section 3.1): for each group
// choose one of three deterministic actions — discard, retrieve, or
// retrieve-and-evaluate — to minimize cost subject to exact recall and
// precision constraints. The paper proves this NP-hard by reduction from
// min-knapsack; this file provides an exact branch-and-bound optimizer that
// is practical for the group counts real predictors produce (tens of
// groups). The engine never runs it (it plans on selectivities, Sections
// 3.2 onward); Table 1 does.

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
// of taking action act on group i.
//
// Recall constraint: Σ Cₐ·Rₐ ≥ β·ΣCₐ — both Retrieve and Evaluate
// contribute Cₐ. Precision constraint (Eq. 3):
// Σ ((1/α − 1)·Cₐ − Wₐ)·Rₐ + Wₐ·Eₐ ≥ 0.
func (p PerfectInfoInstance) contribution(i int, act Action, invAlphaMinus1 float64) (recall float64, precision float64) {
	c, w := float64(p.Correct[i]), float64(p.Wrong[i])
	switch act {
	case Discard:
		return 0, 0
	case Retrieve:
		return c, invAlphaMinus1*c - w
	default: // Evaluate
		return c, invAlphaMinus1 * c
	}
}

// SolvePerfectInfo finds the minimum-cost deterministic action assignment,
// exactly, via depth-first branch and bound. Groups are explored in
// decreasing selectivity order; the search prunes on (a) cost ≥ incumbent
// and (b) optimistic bounds showing the remaining groups cannot repair the
// recall or precision deficit.
//
// Runtime is worst-case exponential in the number of groups (the problem is
// NP-hard), but the pruning keeps instances with dozens of groups fast in
// practice. For α = 0 pass Alpha = 0; the precision constraint then never
// binds.
func SolvePerfectInfo(p PerfectInfoInstance) ([]Action, float64, error) {
	n := len(p.Correct)
	if len(p.Wrong) != n {
		return nil, 0, errors.New("experiments: Correct/Wrong length mismatch")
	}
	totalCorrect := 0
	for _, c := range p.Correct {
		totalCorrect += c
	}
	gamma := p.Beta * float64(totalCorrect) // required Σ Cₐ Rₐ
	invAlphaMinus1 := math.Inf(1)
	if p.Alpha > 0 {
		invAlphaMinus1 = 1/p.Alpha - 1
	}

	order := p.groupOrder()

	// Suffix optimistic bounds: the most recall / precision slack the groups
	// from position k onward could still add (taking the best action each).
	sufRecall := make([]float64, n+1)
	sufPrec := make([]float64, n+1)
	for k := n - 1; k >= 0; k-- {
		i := order[k]
		bestR, bestP := 0.0, 0.0
		for _, act := range []Action{Discard, Retrieve, Evaluate} {
			r, pc := p.contribution(i, act, invAlphaMinus1)
			if p.Alpha <= 0 {
				pc = 0
			}
			if r > bestR {
				bestR = r
			}
			if pc > bestP {
				bestP = pc
			}
		}
		sufRecall[k] = sufRecall[k+1] + bestR
		sufPrec[k] = sufPrec[k+1] + bestP
	}

	best := math.Inf(1)
	var bestActs []Action
	acts := make([]Action, n)

	var dfs func(k int, cost, recall, prec float64)
	dfs = func(k int, cost, recall, prec float64) {
		if cost >= best {
			return
		}
		if recall+sufRecall[k] < gamma-1e-9 {
			return
		}
		if p.Alpha > 0 && prec+sufPrec[k] < -1e-9 {
			return
		}
		if k == n {
			if recall >= gamma-1e-9 && (p.Alpha <= 0 || prec >= -1e-9) {
				best = cost
				bestActs = append([]Action(nil), acts...)
			}
			return
		}
		i := order[k]
		// Try cheap actions first so incumbents improve quickly.
		for _, act := range []Action{Discard, Retrieve, Evaluate} {
			r, pc := p.contribution(i, act, invAlphaMinus1)
			if p.Alpha <= 0 {
				pc = 0
			}
			acts[i] = act
			dfs(k+1, cost+p.cost(i, act), recall+r, prec+pc)
		}
		acts[i] = Discard
	}
	dfs(0, 0, 0, 0)

	if bestActs == nil {
		// Evaluating everything always satisfies both constraints
		// (precision 1, recall 1), so this is unreachable for valid input.
		return nil, 0, ErrNoFeasibleAssignment
	}
	return bestActs, best, nil
}
