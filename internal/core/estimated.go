package core

import (
	"fmt"
	"math"

	"repro/internal/solver"
	"repro/internal/stats"
)

// This file implements Section 3.3 (estimated selectivities) and
// Section 4.2 (the sampling-aware variant). The optimizer only has a
// selectivity estimate per group — a random variable Sₐ with mean mₐ and
// variance vₐ — so the Hoeffding margins of Section 3.2 are replaced by
// deviation bounds that depend on the decision variables themselves, making
// the problem convex instead of linear:
//
//	minimize  Σ wₐ (o_r·Rₐ + o_e·Eₐ)
//	s.t.      Gp(R,E) ≥ X(R,E)   and   Gr(R) ≥ Y(R)
//
// where Gp/Gr are the expected precision/recall LHS and X/Y are e_ρ times
// an upper bound on the LHS standard deviation. Each constraint is
// one-sided, so e_ρ is Cantelli's √(ρ/(1−ρ)) (stats.CantelliMultiplier):
// P(LHS < E[LHS] − e_ρ·Dev) ≤ 1−ρ, the event Constraints promises per
// constraint, rather than the paper's two-sided Chebyshev 1/√(1−ρ).
//
// Each group's share of the LHS has an exact variance under the model the
// planner assumes: given Sₐ its wₐ remaining tuples are i.i.d.
// Bernoulli(Sₐ), and each one's retrieve/evaluate coins are independent.
// By the law of total variance,
//
//	Var(LHSₐ) = wₐ²·vₐ·dₐ² + wₐ·cₐ,   cₐ = E_S[Var(per-tuple term | S)],
//
// with dₐ = Rₐ−αEₐ for precision and Rₐ−β for recall, and cₐ a closed form
// in mₐ and qₐ = vₐ+mₐ² (precisionTerms, recallTerms). cₐ ≤ 1/4, the most a
// term in a range of width 1 can vary, which is what the paper charges every
// tuple; a group the plan discards has precision variance exactly 0. Two
// bounds combine the groups:
//
//   - Unknown correlations (Convex Prog. 3.10): Dev(Σ) ≤ Σ Dev, giving
//     e_ρ·Σ √Var(LHSₐ).
//   - Independent groups (Convex Prog. 3.11): variances add, giving
//     e_ρ·√(Σ Var(LHSₐ)).
//
// The sampling variant (Convex Prog. 4.1) additionally returns the already
// evaluated F⁺ₐ tuples and plans only over the remaining wₐ = tₐ−Fₐ.
// Selection before a join (Section 5) is the same program weighted: a
// group whose tuples each join kₐ tuples scales its LHS terms and sampled
// constants by kₐ and its variance by kₐ² (PlanSelectJoin).
//
// Solution method: the first two constraints match Linear-Prog. 3.4 with
// thresholds (X, Y), so we iterate BIGREEDY-LP against relinearized
// thresholds (a fixed-point scheme) — every iterate is verified against the
// true convex constraint and the cheapest verified strategy wins. A
// projected-gradient solver over the exact convex program is available as
// an independent cross-check (PlanEstimatedGradient).

// CorrelationModel selects which deviation bound the planner uses.
type CorrelationModel int

const (
	// IndependentGroups assumes the selectivity estimates of different
	// groups are independent (true for per-group sampling); variances add.
	IndependentGroups CorrelationModel = iota
	// UnknownCorrelations assumes nothing: standard deviations add. More
	// conservative, never cheaper than IndependentGroups.
	UnknownCorrelations
)

func (m CorrelationModel) String() string {
	if m == UnknownCorrelations {
		return "unknown-correlations"
	}
	return "independent-groups"
}

// estProblem carries the precomputed constants of one estimated-selectivity
// planning problem.
type estProblem struct {
	groups []GroupInfo
	wt     weights // per-group join multiplicity kₐ; nil is 1 everywhere
	cons   Constraints
	cost   CostModel
	model  CorrelationModel
	erho   float64

	// Derived: per-group remaining sizes and constants.
	w         []float64 // wₐ = tₐ − Fₐ
	q         []float64 // qₐ = E[Sₐ²] = vₐ + mₐ², the posterior second moment
	vars      []float64 // scratch: Var(LHSₐ) of the strategy being priced
	sumPos    float64   // Σ kₐ·F⁺ₐ
	sumWS     float64   // Σ kₐ·wₐ·sₐ
	precConst float64   // Σ kₐ·F⁺ₐ·(1−α): constant part of the precision LHS
	recallRHS float64   // β·Σ kₐ(F⁺ₐ + wₐsₐ) − Σ kₐF⁺ₐ: constant part of recall RHS
}

func newEstProblem(groups []GroupInfo, wt weights, cons Constraints, cost CostModel, model CorrelationModel) *estProblem {
	p := &estProblem{
		groups: groups, wt: wt, cons: cons, cost: cost, model: model,
		erho: stats.CantelliMultiplier(cons.Rho),
		w:    make([]float64, len(groups)),
		q:    make([]float64, len(groups)),
		vars: make([]float64, len(groups)),
	}
	for i, g := range groups {
		w := float64(g.Remaining())
		p.w[i] = w
		// S ∈ [0,1] has E[S²] ≤ E[S]: capping q at m keeps c ≥ 0 for any
		// given variance.
		p.q[i] = min(g.Variance+g.Selectivity*g.Selectivity, g.Selectivity)
		p.sumPos += wt.at(i) * float64(g.SampledPositive)
		p.sumWS += wt.at(i) * w * g.Selectivity
	}
	p.precConst = p.sumPos * (1 - cons.Alpha)
	p.recallRHS = cons.Beta*(p.sumPos+p.sumWS) - p.sumPos
	return p
}

// precisionTerms returns dₐ and cₐ of a group's precision LHS, whose
// per-tuple term is (1−α) for a retrieved positive, −α for a retrieved but
// unevaluated negative and 0 otherwise: given S its mean is d·S − b with
// b = α(R−E), and c = E_S[Var | S] over S with mean m and E[S²] = q.
func precisionTerms(alpha, m, q, r, e float64) (d, c float64) {
	d = r - alpha*e
	b := alpha * (r - e)
	c = (1-alpha)*(1-alpha)*m*r + (r-e)*(1-m)*alpha*alpha - d*d*q + 2*d*b*m - b*b
	return d, c
}

// recallTerms returns dₐ and cₐ of a group's recall LHS, whose per-tuple
// term is (1−β) for a retrieved positive, −β for a discarded one and 0 for
// a negative: given S its mean is d·S.
func recallTerms(beta, m, q, r float64) (d, c float64) {
	d = r - beta
	c = m*(r*(1-beta)*(1-beta)+(1-r)*beta*beta) - d*d*q
	return d, c
}

// groupVar is Var(LHSₐ) = kₐ²·(wₐ²·vₐ·d² + wₐ·c), the one per-group
// variance both correlation models combine.
func (p *estProblem) groupVar(i int, d, c float64) float64 {
	w, k := p.w[i], p.wt.at(i)
	return k * k * (w*w*p.groups[i].Variance*d*d + w*max(c, 0))
}

// deviation combines the per-group variances in p.vars into e_ρ times the
// model's bound on Dev(Σₐ LHSₐ).
func (p *estProblem) deviation() float64 {
	total := 0.0
	if p.model == UnknownCorrelations {
		for _, v := range p.vars {
			total += math.Sqrt(v)
		}
		return p.erho * total
	}
	for _, v := range p.vars {
		total += v
	}
	return p.erho * math.Sqrt(total)
}

// devPrecision returns the deviation bound X(R,E) for the precision
// constraint.
func (p *estProblem) devPrecision(s Strategy) float64 {
	for i := range p.vars {
		d, c := precisionTerms(p.cons.Alpha, p.groups[i].Selectivity, p.q[i], s.R[i], s.E[i])
		p.vars[i] = p.groupVar(i, d, c)
	}
	return p.deviation()
}

// devRecall returns the deviation bound Y(R) for the recall constraint.
func (p *estProblem) devRecall(s Strategy) float64 {
	for i := range p.vars {
		d, c := recallTerms(p.cons.Beta, p.groups[i].Selectivity, p.q[i], s.R[i])
		p.vars[i] = p.groupVar(i, d, c)
	}
	return p.deviation()
}

// devPrecisionMax / devRecallMax bound the deviations over the whole
// feasible box, providing safe starting thresholds: |d| at its box maximum
// (R−αE ≤ 1; |R−β| ≤ max(β, 1−β)) and c at its bound of 1/4, the largest
// variance of a per-tuple term in a range of width 1.
func (p *estProblem) devPrecisionMax() float64 {
	for i := range p.vars {
		p.vars[i] = p.groupVar(i, 1, 0.25)
	}
	return p.deviation()
}

func (p *estProblem) devRecallMax() float64 {
	worst := max(p.cons.Beta, 1-p.cons.Beta)
	for i := range p.vars {
		p.vars[i] = p.groupVar(i, worst, 0.25)
	}
	return p.deviation()
}

// lhs returns the expected precision and recall LHS (including sampled
// constants) for the strategy.
func (p *estProblem) lhs(s Strategy) (prec, recall float64) {
	gp, gr := perfectSelectivityLHS(p.groups, s, p.cons.Alpha, p.wt)
	return gp + p.precConst, gr - p.recallRHS
}

// feasible verifies the strategy against the exact convex constraints,
// honoring deterministic caps.
func (p *estProblem) feasible(s Strategy) bool {
	prec, recall := p.lhs(s)
	recallOK := s.RecallCapped || almostGE(recall, p.devRecall(s))
	precOK := s.PrecisionCapped || almostGE(prec, p.devPrecision(s))
	return recallOK && precOK
}

// solveFixedPoint iterates BIGREEDY-LP against relinearized thresholds.
func (p *estProblem) solveFixedPoint() Strategy {
	x := p.devPrecisionMax()
	y := p.devRecallMax()
	order := greedyOrder(p.groups, p.wt)
	var best Strategy
	bestCost := math.Inf(1)
	const maxIter = 40
	for iter := 0; iter < maxIter; iter++ {
		// Thresholds for the greedy LP: precision LHS must reach x minus the
		// sampled constant; recall LHS must reach y plus the recall RHS.
		recallTarget := y + p.recallRHS
		precTarget := x - p.precConst
		s := biGreedy(p.groups, order, p.cons.Alpha, recallTarget, precTarget, p.wt)
		if p.feasible(s) {
			if c := s.ExpectedCost(p.groups, p.cost); c < bestCost {
				bestCost = c
				best = s.Clone()
			}
		}
		nx, ny := p.devPrecision(s), p.devRecall(s)
		if math.Abs(nx-x)+math.Abs(ny-y) < 1e-9*(1+x+y) {
			break
		}
		// Damped update to avoid oscillation between under- and
		// over-tightened thresholds.
		x = 0.5*x + 0.5*nx
		y = 0.5*y + 0.5*ny
	}
	if math.IsInf(bestCost, 1) {
		// No iterate verified (extreme variances): fall back to the exact
		// query, which satisfies everything deterministically.
		return FullEvaluation(len(p.groups))
	}
	return best
}

// PlanEstimated solves the estimated-selectivity problem (Problem 3) under
// the chosen correlation model, returning a strategy whose precision and
// recall constraints each hold with probability at least ρ.
func PlanEstimated(groups []GroupInfo, cons Constraints, cost CostModel, model CorrelationModel) (Strategy, error) {
	if err := validatePlanInput(groups, cons, cost); err != nil {
		return Strategy{}, err
	}
	p := newEstProblem(groups, nil, cons, cost, model)
	return p.solveFixedPoint(), nil
}

// PlanWithSamples solves Convex Prog. 4.1: the groups carry sampling
// outcomes (Fₐ, F⁺ₐ) and Beta-posterior estimates; sampled matching tuples
// are part of the output for free, and the plan covers only the remaining
// tuples. This is the planning step of the Intel-Sample algorithm.
func PlanWithSamples(groups []GroupInfo, cons Constraints, cost CostModel) (Strategy, error) {
	return PlanEstimated(groups, cons, cost, IndependentGroups)
}

// PlanSelectJoin solves Convex Prog. 4.1 for selection before a join
// (Section 5): each tuple of group a joins wt[a] tuples of the joined
// table, so it counts that many times toward join-result precision and
// recall (sampled positives included) while costing the same to retrieve or
// evaluate. With every weight 1 it is PlanWithSamples, bit for bit.
func PlanSelectJoin(groups []GroupInfo, wt []float64, cons Constraints, cost CostModel) (Strategy, error) {
	if err := validatePlanInput(groups, cons, cost); err != nil {
		return Strategy{}, err
	}
	if len(wt) != len(groups) {
		return Strategy{}, fmt.Errorf("core: %d join weights for %d groups", len(wt), len(groups))
	}
	for _, k := range wt {
		if k < 0 {
			return Strategy{}, fmt.Errorf("core: negative join weight %v", k)
		}
	}
	return newEstProblem(groups, wt, cons, cost, IndependentGroups).solveFixedPoint(), nil
}

// CheckEstimatedFeasible verifies a strategy against the exact convex
// constraints of the estimated-selectivity problem.
func CheckEstimatedFeasible(groups []GroupInfo, s Strategy, cons Constraints, model CorrelationModel) bool {
	p := newEstProblem(groups, nil, cons, CostModel{}, model)
	return p.feasible(s)
}

// PlanEstimatedGradient solves the same convex program with the
// projected-gradient solver instead of the fixed-point scheme. It exists
// as an independent cross-check and for the solver ablation bench; the two
// planners should land within a few percent of each other.
func PlanEstimatedGradient(groups []GroupInfo, cons Constraints, cost CostModel, model CorrelationModel) (Strategy, error) {
	if err := validatePlanInput(groups, cons, cost); err != nil {
		return Strategy{}, err
	}
	p := newEstProblem(groups, nil, cons, cost, model)
	m := len(groups)

	toStrategy := func(x []float64) Strategy {
		s := NewStrategy(m)
		for i := 0; i < m; i++ {
			s.R[i], s.E[i] = x[2*i], x[2*i+1]
		}
		return s
	}

	scale := float64(TotalSize(groups))
	if scale < 1 {
		scale = 1
	}
	prob := solver.Problem{
		Dim: 2 * m,
		Obj: func(x []float64) float64 {
			total := 0.0
			for i := 0; i < m; i++ {
				total += p.w[i] * (cost.Retrieve*x[2*i] + cost.Evaluate*x[2*i+1])
			}
			return total / scale
		},
		ObjGrad: func(x, out []float64) {
			for i := 0; i < m; i++ {
				out[2*i] = p.w[i] * cost.Retrieve / scale
				out[2*i+1] = p.w[i] * cost.Evaluate / scale
			}
		},
		Cons: []solver.Constraint{
			{F: func(x []float64) float64 {
				s := toStrategy(x)
				prec, _ := p.lhs(s)
				return (p.devPrecision(s) - prec) / scale
			}},
			{F: func(x []float64) float64 {
				s := toStrategy(x)
				_, recall := p.lhs(s)
				return (p.devRecall(s) - recall) / scale
			}},
		},
		Project: solver.ProjectStrategy,
	}
	// Start from the fixed-point solution so the gradient solver refines
	// rather than searches; fall back to full evaluation on solver failure.
	seed := p.solveFixedPoint()
	x0 := make([]float64, 2*m)
	for i := 0; i < m; i++ {
		x0[2*i], x0[2*i+1] = seed.R[i], seed.E[i]
	}
	res, err := solver.Solve(prob, x0, solver.Options{Tol: 1e-7})
	if err != nil {
		return seed, nil
	}
	s := toStrategy(res.X)
	s.clamp()
	if !p.feasible(s) {
		return seed, nil
	}
	// Keep whichever is cheaper; both are verified feasible.
	if s.ExpectedCost(groups, cost) <= seed.ExpectedCost(groups, cost) {
		return s, nil
	}
	return seed, nil
}
