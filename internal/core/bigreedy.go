package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/stats"
)

// This file implements Section 3.2: the Hoeffding-tightened linear program
// (Linear-Prog. 3.4) and the O(|A| log |A|) BIGREEDY-LP algorithm that
// solves it without a general LP solver.
//
// The LP over variables 0 ≤ Eₐ ≤ Rₐ ≤ 1:
//
//	minimize  Σ tₐ·(o_r·Rₐ + o_e·Eₐ)
//	s.t.      Σ tₐsₐ(1−α)Rₐ + tₐ(1−sₐ)α(Eₐ−Rₐ) ≥ h^p   (precision)
//	          Σ tₐsₐRₐ ≥ β·Σ tₐsₐ + h^r                  (recall)
//
// BIGREEDY-LP raises the Rₐ in decreasing-selectivity order until the
// recall constraint holds, then raises the Eₐ in increasing-selectivity
// order (among retrieved groups) until the precision constraint holds. The
// appendix proves this greedy is optimal for the LP.

// PlanPerfectSelectivities solves the perfect-selectivity problem
// (Problem 2): given exact group selectivities, return the minimum-cost
// strategy whose precision and recall constraints each hold with
// probability at least ρ.
//
// If the Hoeffding margins are too large for the fractional constraints to
// be satisfiable, the planner falls back to the nearest deterministic
// guarantee: retrieving everything makes recall exactly 1 and evaluating
// everything retrieved makes precision exactly 1. The returned strategy's
// RecallCapped/PrecisionCapped flags record when that happened.
func PlanPerfectSelectivities(groups []GroupInfo, cons Constraints, cost CostModel) (Strategy, error) {
	if err := validatePlanInput(groups, cons, cost); err != nil {
		return Strategy{}, err
	}
	n := float64(TotalSize(groups))
	hp := stats.PrecisionMargin(n, cons.Rho)
	hr := stats.RecallMargin(n, cons.Beta, cons.Rho)
	recallTarget := cons.Beta*ExpectedCorrect(groups) + hr
	return biGreedy(groups, greedyOrder(groups, nil), cons.Alpha, recallTarget, hp, nil), nil
}

func validatePlanInput(groups []GroupInfo, cons Constraints, cost CostModel) error {
	if len(groups) == 0 {
		return fmt.Errorf("core: no groups to plan over")
	}
	if err := cons.Validate(); err != nil {
		return err
	}
	if err := cost.Validate(); err != nil {
		return err
	}
	for i, g := range groups {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("core: group %d: %w", i, err)
		}
	}
	return nil
}

// weights optionally reweights each group's recall/precision contribution
// (used by the select-then-join extension, where a group's output tuples
// count with their join multiplicity). nil means weight 1 everywhere.
type weights []float64

func (w weights) at(i int) float64 {
	if w == nil {
		return 1
	}
	return w[i]
}

// biGreedy runs BIGREEDY-LP over the remaining (unsampled) tuples of each
// group.
//
// recallTarget is the required value of Σ cₐ·wᵢ·sᵢ·Rᵢ where cₐ is the
// per-group weight (1 by default) and wᵢ = remaining size; precTarget is
// the required value of the precision LHS
// Σ cₐ·wᵢ·[sᵢ(1−α)Rᵢ − (1−sᵢ)α(Rᵢ−Eᵢ)].
// order is greedyOrder(groups, wt).
func biGreedy(groups []GroupInfo, order []int, alpha float64, recallTarget, precTarget float64, wt weights) Strategy {
	s := NewStrategy(len(groups))

	// Phase 1: raise R in decreasing selectivity order.
	acc := 0.0
	for lo := 0; lo < len(order) && acc < recallTarget; {
		hi := tieEnd(order, lo, groups, wt)
		block := order[lo:hi]
		lo = hi
		gain := 0.0
		for _, i := range block {
			gain += wt.at(i) * float64(groups[i].Remaining()) * groups[i].Selectivity
		}
		if gain <= 0 {
			// Zero-selectivity or empty groups cannot add recall.
			continue
		}
		f := 1.0
		if acc+gain > recallTarget {
			f = (recallTarget - acc) / gain
		}
		for _, i := range block {
			s.R[i] = f
		}
		acc = min(acc+gain, recallTarget)
	}
	if acc < recallTarget {
		// Even retrieving everything with positive selectivity cannot meet
		// the margin-tightened target. Retrieve all tuples: recall is then
		// deterministically 1 (every correct tuple is returned or verified).
		for i := range s.R {
			s.R[i] = 1
		}
		s.RecallCapped = true
	}

	// Phase 2: raise E in increasing selectivity order among retrieved
	// groups until the precision LHS reaches precTarget.
	lhs := 0.0
	for i, g := range groups {
		w := wt.at(i) * float64(g.Remaining())
		lhs += w * s.R[i] * (g.Selectivity - alpha)
	}
	if lhs < precTarget {
		// Ordering for evaluations: ascending weighted wrongness — the
		// paper evaluates the most incorrect retrieved groups first.
		evalOrder := slices.Clone(order)
		slices.Reverse(evalOrder)
		needed := precTarget - lhs
		for lo := 0; lo < len(evalOrder) && needed > 0; {
			hi := tieEnd(evalOrder, lo, groups, wt)
			block := evalOrder[lo:hi]
			lo = hi
			// cap is what raising E from 0 to R over the block adds.
			cap := 0.0
			for _, i := range block {
				cap += wt.at(i) * float64(groups[i].Remaining()) * (1 - groups[i].Selectivity) * alpha * s.R[i]
			}
			if cap <= 0 {
				continue
			}
			f := min(needed/cap, 1)
			for _, i := range block {
				s.E[i] = f * s.R[i]
			}
			needed -= f * cap
		}
		if needed > 0 {
			// Everything retrieved is evaluated: the output contains only
			// verified tuples, so precision is deterministically 1.
			copy(s.E, s.R)
			s.PrecisionCapped = true
		}
	}
	s.clamp()
	return s
}

// greedyOrder is BIGREEDY-LP's visiting order: groups by weighted
// selectivity, descending — the cheapest recall per unit retrieval cost
// first. It depends on neither target, so a fixed point over the targets
// sorts once.
func greedyOrder(groups []GroupInfo, wt weights) []int {
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		i, j := order[x], order[y]
		return wt.at(i)*groups[i].Selectivity > wt.at(j)*groups[j].Selectivity
	})
	return order
}

// tieEnd returns the end of the run of equal weighted selectivity that
// starts at order[lo]. Groups in one run are exchangeable to the planner,
// so each greedy phase gives them one shared fraction: the plan then does
// not depend on the order the groups are listed in (their keys), which an
// ordered world could otherwise correlate with their true selectivities.
func tieEnd(order []int, lo int, groups []GroupInfo, wt weights) int {
	key := wt.at(order[lo]) * groups[order[lo]].Selectivity
	hi := lo + 1
	for hi < len(order) && wt.at(order[hi])*groups[order[hi]].Selectivity == key {
		hi++
	}
	return hi
}

// perfectSelectivityLHS returns the precision and recall LHS values of
// Linear-Prog. 3.4 for the given strategy (over remaining tuples,
// optionally weighted).
func perfectSelectivityLHS(groups []GroupInfo, s Strategy, alpha float64, wt weights) (prec, recall float64) {
	for i, g := range groups {
		w := wt.at(i) * float64(g.Remaining())
		sa := g.Selectivity
		prec += w * (sa*(1-alpha)*s.R[i] - (1-sa)*alpha*(s.R[i]-s.E[i]))
		recall += w * sa * s.R[i]
	}
	return prec, recall
}

// CheckPerfectSelectivityFeasible verifies the strategy satisfies the
// margin-tightened constraints of Linear-Prog. 3.4 (or carries a
// deterministic cap that supersedes them).
func CheckPerfectSelectivityFeasible(groups []GroupInfo, s Strategy, cons Constraints) bool {
	n := float64(TotalSize(groups))
	hp := stats.PrecisionMargin(n, cons.Rho)
	hr := stats.RecallMargin(n, cons.Beta, cons.Rho)
	prec, recall := perfectSelectivityLHS(groups, s, cons.Alpha, nil)
	recallOK := s.RecallCapped || almostGE(recall, cons.Beta*ExpectedCorrect(groups)+hr)
	precOK := s.PrecisionCapped || almostGE(prec, hp)
	return recallOK && precOK
}
