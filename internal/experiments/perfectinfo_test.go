package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// bruteForcePerfectInfo enumerates all 3^n assignments.
func bruteForcePerfectInfo(groups []PerfectInfoGroup, cons core.Constraints, cost core.CostModel) ([]Action, float64) {
	n := len(groups)
	totalCorrect := 0
	for _, g := range groups {
		totalCorrect += g.Correct
	}
	gamma := cons.Beta * float64(totalCorrect)
	best := math.Inf(1)
	var bestActs []Action
	acts := make([]Action, n)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			total, recall, prec := 0.0, 0.0, 0.0
			for i, a := range acts {
				ac := groups[i].action(a, cons.Alpha, cost)
				total += ac.Cost
				recall += ac.Recall
				if cons.Alpha > 0 {
					prec += ac.Slack
				}
			}
			if recall >= gamma-1e-9 && (cons.Alpha <= 0 || prec >= -1e-9) && total < best {
				best = total
				bestActs = append([]Action(nil), acts...)
			}
			return
		}
		for _, a := range []Action{Discard, Retrieve, Evaluate} {
			acts[k] = a
			rec(k + 1)
		}
	}
	rec(0)
	return bestActs, best
}

func TestSolvePerfectInfoPaperExample(t *testing.T) {
	// Example 3.1: groups of 1000 tuples with 900/500/100 correct,
	// α = β = 0.9, o_r = 1, o_e = 3. Optimal: retrieve group 0, evaluate
	// group 1, discard group 2; cost = 1000·1 + 1000·4 = 5000.
	groups := []PerfectInfoGroup{{Correct: 900, Wrong: 100}, {Correct: 500, Wrong: 500}, {Correct: 100, Wrong: 900}}
	plan, err := SolvePerfectInformation(groups, core.Constraints{Alpha: 0.9, Beta: 0.9}, core.CostModel{Retrieve: 1, Evaluate: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost != 5000 {
		t.Fatalf("cost %v want 5000 (actions %v)", plan.Cost, plan.Actions)
	}
	want := []Action{Retrieve, Evaluate, Discard}
	for i := range want {
		if plan.Actions[i] != want[i] {
			t.Fatalf("actions %v want %v", plan.Actions, want)
		}
	}
}

func TestSolvePerfectInfoMatchesBruteForce(t *testing.T) {
	r := stats.NewRNG(91)
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.IntN(6)
		cons := core.Constraints{Alpha: 0.5 + 0.4*r.Float64(), Beta: 0.5 + 0.4*r.Float64()}
		cost := core.CostModel{Retrieve: 1, Evaluate: 1 + float64(r.IntN(5))}
		groups := make([]PerfectInfoGroup, n)
		for i := range groups {
			groups[i].Correct = r.IntN(50)
			groups[i].Wrong = r.IntN(50)
		}
		_, wantCost := bruteForcePerfectInfo(groups, cons, cost)
		plan, err := SolvePerfectInformation(groups, cons, cost)
		if err != nil {
			t.Fatalf("trial %d: %v (groups %+v)", trial, err, groups)
		}
		if math.Abs(plan.Cost-wantCost) > 1e-6 {
			t.Fatalf("trial %d: cost %v want %v (groups %+v, %+v, %+v)", trial, plan.Cost, wantCost, groups, cons, cost)
		}
	}
}

func TestSolvePerfectInfoAlphaZeroReducesToKnapsack(t *testing.T) {
	// Theorem 3.2's reduction, run forwards: with α = 0 the problem is a
	// min-knapsack. Cross-check against the DP.
	r := stats.NewRNG(95)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.IntN(6)
		values := make([]int, n)
		weights := make([]float64, n)
		total := 0
		for i := 0; i < n; i++ {
			values[i] = 1 + r.IntN(20)
			// Scale weights above values as the proof requires (w > v).
			weights[i] = float64(values[i]) + 1 + float64(r.IntN(30))
			total += values[i]
		}
		threshold := 1 + r.IntN(total)

		_, wantWeight, err := MinKnapsack(weights, values, threshold)
		if err != nil {
			t.Fatal(err)
		}

		groups := make([]PerfectInfoGroup, n)
		for i := range groups {
			groups[i] = PerfectInfoGroup{Correct: values[i], Wrong: int(weights[i]) - values[i]}
		}
		cons := core.Constraints{Alpha: 0, Beta: float64(threshold) / float64(total)}
		// o_e = 100: evaluation must never be chosen when α = 0.
		plan, err := SolvePerfectInformation(groups, cons, core.CostModel{Retrieve: 1, Evaluate: 100})
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range plan.Actions {
			if a == Evaluate {
				t.Fatalf("trial %d: group %d evaluated despite α=0", trial, i)
			}
		}
		// Account for β·total rounding: the B&B needs Σ v·R ≥ β·total which
		// equals the threshold exactly by construction.
		if math.Abs(plan.Cost-wantWeight) > 1e-6 {
			t.Fatalf("trial %d: B&B cost %v, knapsack weight %v", trial, plan.Cost, wantWeight)
		}
	}
}

func TestActionString(t *testing.T) {
	if Discard.String() != "discard" || Retrieve.String() != "retrieve" || Evaluate.String() != "evaluate" {
		t.Fatal("Action.String mismatch")
	}
	if Action(42).String() != "invalid" {
		t.Fatal("invalid action should stringify as invalid")
	}
}
