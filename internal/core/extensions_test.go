package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// sampledPaperGroups is paperGroups as the engine's planner sees them: each
// group's selectivity estimated from a 20-tuple sample.
func sampledPaperGroups() []GroupInfo {
	return []GroupInfo{
		GroupInfoFromSample(1000, 20, 18),
		GroupInfoFromSample(1000, 20, 10),
		GroupInfoFromSample(1000, 20, 2),
	}
}

func TestPlanBudgetEndpoints(t *testing.T) {
	groups := sampledPaperGroups()
	// Huge budget: full recall achievable.
	plan, err := PlanBudget(groups, 0.8, 0.8, 1e9, DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	if plan.AchievedBeta != 1 {
		t.Fatalf("huge budget achieved β=%v, want 1", plan.AchievedBeta)
	}
	// Zero budget: discarding every remaining tuple has deviation exactly
	// 0, so a plan always fits at zero cost, carried by the sampled
	// positives.
	plan, err = PlanBudget(groups, 0.8, 0.8, 0, DefaultCost)
	if err != nil {
		t.Fatalf("zero budget: %v", err)
	}
	if c := plan.Strategy.ExpectedCost(groups, DefaultCost); c != 0 {
		t.Fatalf("zero budget plan costs %v", c)
	}
	if plan.AchievedBeta < 0 || plan.AchievedBeta >= 1 {
		t.Fatalf("zero budget achieved β=%v", plan.AchievedBeta)
	}
	t.Logf("zero budget: achieved β=%v", plan.AchievedBeta)
	if _, err := PlanBudget(groups, 0.8, 0.8, -5, DefaultCost); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestPlanBudgetMonotone(t *testing.T) {
	groups := sampledPaperGroups()
	prev := -1.0
	for _, budget := range []float64{1500, 3000, 5000, 8000} {
		plan, err := PlanBudget(groups, 0.8, 0.8, budget, DefaultCost)
		if err != nil {
			t.Fatalf("budget %v: %v", budget, err)
		}
		if plan.AchievedBeta < prev-1e-9 {
			t.Fatalf("achieved β decreased at budget %v", budget)
		}
		prev = plan.AchievedBeta
		// The plan must respect the budget.
		if c := plan.Strategy.ExpectedCost(groups, DefaultCost); c > budget+1e-6 {
			t.Fatalf("plan cost %v exceeds budget %v", c, budget)
		}
	}
}

func bruteForceTwoPred(groups []TwoPredGroup, cons Constraints, cost CostModel) float64 {
	actions := []TwoPredAction{TPDiscard, TPAssumeBoth, TPEval1Assume2, TPAssume1Eval2, TPEvalBoth}
	n := len(groups)
	totalCorrect := 0.0
	for _, g := range groups {
		totalCorrect += float64(g.Size) * g.Both
	}
	gamma := cons.Beta * totalCorrect
	best := math.Inf(1)
	acts := make([]TwoPredAction, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			c, recall, prec := 0.0, 0.0, 0.0
			for gi, a := range acts {
				g := groups[gi]
				t := float64(g.Size)
				cc, corr, wrong := twoPredStats(g, a, cost)
				c += t * cc
				recall += t * corr
				prec += t * (corr - cons.Alpha*(corr+wrong))
			}
			if recall >= gamma-1e-9 && prec >= -1e-9 && c < best {
				best = c
			}
			return
		}
		for _, a := range actions {
			acts[i] = a
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// randomCells draws a group's joint cells uniformly from the simplex, so
// almost every draw is far from the product of its marginals.
func randomCells(r *stats.RNG, size int) TwoPredGroup {
	var w [4]float64
	sum := 0.0
	for i := range w {
		w[i] = r.Gamma(1)
		sum += w[i]
	}
	return TwoPredGroup{Size: size, Both: w[0] / sum, Only1: w[1] / sum, Only2: w[2] / sum}
}

// independentCells is the group whose predicates are independent with
// the given marginals.
func independentCells(size int, p1, p2 float64) TwoPredGroup {
	return TwoPredGroup{Size: size, Both: p1 * p2, Only1: p1 * (1 - p2), Only2: (1 - p1) * p2}
}

func TestPlanTwoPredicatesMatchesBruteForce(t *testing.T) {
	r := stats.NewRNG(801)
	correlated := 0
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.IntN(4)
		groups := make([]TwoPredGroup, n)
		for i := range groups {
			groups[i] = randomCells(r, 50+r.IntN(500))
			g := groups[i]
			if p1, p2 := g.Both+g.Only1, g.Both+g.Only2; math.Abs(g.Both-p1*p2) > 0.05 {
				correlated++
			}
		}
		cons := Constraints{Alpha: 0.4 + 0.5*r.Float64(), Beta: 0.4 + 0.5*r.Float64(), Rho: 0.8}
		want := bruteForceTwoPred(groups, cons, DefaultCost)
		acts, got, err := PlanTwoPredicates(groups, cons, DefaultCost)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("trial %d: cost %v want %v (acts %v)", trial, got, want, acts)
		}
	}
	if correlated < 10 {
		t.Fatalf("only %d drawn groups are far from independent", correlated)
	}
}

func TestPlanTwoPredicatesSkipsSecondUDF(t *testing.T) {
	// A group very unlikely to pass predicate 1 should not pay for
	// evaluating predicate 2 (the paper's motivating observation).
	groups := []TwoPredGroup{
		independentCells(1000, 0.95, 0.95), // passes both: assume or cheap
		independentCells(1000, 0.02, 0.9),  // fails pred 1: discard
	}
	cons := Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	acts, _, err := PlanTwoPredicates(groups, cons, DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	if acts[1] != TPDiscard {
		t.Fatalf("low-sel1 group action %v, want discard", acts[1])
	}
}

func TestTwoPredActionString(t *testing.T) {
	names := map[TwoPredAction]string{
		TPDiscard: "discard", TPAssumeBoth: "assume-both",
		TPEval1Assume2: "eval-1", TPAssume1Eval2: "eval-2", TPEvalBoth: "eval-both",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%d stringifies as %q, want %q", a, a.String(), want)
		}
	}
	if TwoPredAction(99).String() != "invalid" {
		t.Fatal("invalid action string")
	}
}

func TestTwoPredStatsEvalBothNeverWrong(t *testing.T) {
	r := stats.NewRNG(803)
	for trial := 0; trial < 100; trial++ {
		g := randomCells(r, 100)
		_, _, wrong := twoPredStats(g, TPEvalBoth, DefaultCost)
		if wrong != 0 {
			t.Fatalf("eval-both produced wrong mass %v", wrong)
		}
		// And it costs less than two unconditional evaluations.
		c, _, _ := twoPredStats(g, TPEvalBoth, DefaultCost)
		full := DefaultCost.Retrieve + 2*DefaultCost.Evaluate
		if c > full+1e-12 {
			t.Fatalf("eval-both cost %v exceeds unconditional %v", c, full)
		}
	}
}

func TestPlanSelectJoinWeighting(t *testing.T) {
	cons := Constraints{Alpha: 0.7, Beta: 0.7, Rho: 0.8}
	// Two groups with the same size and sample; one joins with 10 tuples
	// per row, the other with 1. The heavy group should be retrieved first.
	groups := []GroupInfo{GroupInfoFromSample(1000, 50, 25), GroupInfoFromSample(1000, 50, 25)}
	s, err := PlanSelectJoin(groups, []float64{1, 10}, cons, DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.R[1] <= s.R[0] {
		t.Fatalf("heavy join group retrieved less: R=%v", s.R)
	}
	// The heavy group alone can cover the weighted recall target, so the
	// light group should be untouched.
	if s.R[0] != 0 {
		t.Fatalf("light join group should be discarded, R[0]=%v", s.R[0])
	}
}

// TestPlanSelectJoinUniformWeightsMatchPlain: a join in which every tuple
// joins exactly one tuple is the plain query, so with every weight 1 the
// join planner is Convex Prog. 4.1 itself, bit for bit.
func TestPlanSelectJoinUniformWeightsMatchPlain(t *testing.T) {
	r := stats.NewRNG(805)
	for trial := 0; trial < 40; trial++ {
		groups := make([]GroupInfo, 1+r.IntN(8))
		ones := make([]float64, len(groups))
		for i := range groups {
			size := 1 + r.IntN(3000)
			sampled := r.IntN(min(size, 80) + 1)
			groups[i] = GroupInfoFromSample(size, sampled, r.IntN(sampled+1))
			ones[i] = 1
		}
		cons := Constraints{Alpha: 0.5 + 0.45*r.Float64(), Beta: 0.5 + 0.45*r.Float64(), Rho: 0.5 + 0.45*r.Float64()}
		sJoin, err := PlanSelectJoin(groups, ones, cons, DefaultCost)
		if err != nil {
			t.Fatal(err)
		}
		sPlain, err := PlanWithSamples(groups, cons, DefaultCost)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sJoin, sPlain) {
			t.Fatalf("trial %d: weight-1 join plan %+v, plain plan %+v", trial, sJoin, sPlain)
		}
	}
}

func TestPlanSelectJoinErrors(t *testing.T) {
	cons := Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	if _, err := PlanSelectJoin(nil, nil, cons, DefaultCost); err == nil {
		t.Fatal("empty groups accepted")
	}
	groups := []GroupInfo{GroupInfoFromSample(10, 2, 1)}
	if _, err := PlanSelectJoin(groups, []float64{-1}, cons, DefaultCost); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := PlanSelectJoin(groups, []float64{1, 1}, cons, DefaultCost); err == nil {
		t.Fatal("one weight per group not enforced")
	}
}
