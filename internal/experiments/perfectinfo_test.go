package experiments

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// bruteForcePerfectInfo enumerates all 3^n assignments.
func bruteForcePerfectInfo(p PerfectInfoInstance) ([]Action, float64) {
	n := len(p.Correct)
	totalCorrect := 0
	for _, c := range p.Correct {
		totalCorrect += c
	}
	gamma := p.Beta * float64(totalCorrect)
	best := math.Inf(1)
	var bestActs []Action
	acts := make([]Action, n)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			cost, recall, prec := 0.0, 0.0, 0.0
			for i, a := range acts {
				cost += p.cost(i, a)
				r, pc := p.contribution(i, a)
				recall += r
				if p.Alpha > 0 {
					prec += pc
				}
			}
			if recall >= gamma-1e-9 && (p.Alpha <= 0 || prec >= -1e-9) && cost < best {
				best = cost
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
	p := PerfectInfoInstance{
		Correct:      []int{900, 500, 100},
		Wrong:        []int{100, 500, 900},
		Alpha:        0.9,
		Beta:         0.9,
		RetrieveCost: 1,
		EvaluateCost: 3,
	}
	acts, cost, err := SolvePerfectInfo(p)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 5000 {
		t.Fatalf("cost %v want 5000 (actions %v)", cost, acts)
	}
	want := []Action{Retrieve, Evaluate, Discard}
	for i := range want {
		if acts[i] != want[i] {
			t.Fatalf("actions %v want %v", acts, want)
		}
	}
}

func TestSolvePerfectInfoMatchesBruteForce(t *testing.T) {
	r := stats.NewRNG(91)
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.IntN(6)
		p := PerfectInfoInstance{
			Correct:      make([]int, n),
			Wrong:        make([]int, n),
			Alpha:        0.5 + 0.4*r.Float64(),
			Beta:         0.5 + 0.4*r.Float64(),
			RetrieveCost: 1,
			EvaluateCost: 1 + float64(r.IntN(5)),
		}
		for i := 0; i < n; i++ {
			p.Correct[i] = r.IntN(50)
			p.Wrong[i] = r.IntN(50)
		}
		_, wantCost := bruteForcePerfectInfo(p)
		_, gotCost, err := SolvePerfectInfo(p)
		if err != nil {
			t.Fatalf("trial %d: %v (instance %+v)", trial, err, p)
		}
		if math.Abs(gotCost-wantCost) > 1e-6 {
			t.Fatalf("trial %d: cost %v want %v (instance %+v)", trial, gotCost, wantCost, p)
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

		inst := PerfectInfoInstance{
			Correct:      values,
			Wrong:        make([]int, n),
			Alpha:        0,
			Beta:         float64(threshold) / float64(total),
			RetrieveCost: 1,
			EvaluateCost: 100, // must never be chosen when α = 0
		}
		for i := 0; i < n; i++ {
			inst.Wrong[i] = int(weights[i]) - values[i]
		}
		acts, gotCost, err := SolvePerfectInfo(inst)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range acts {
			if a == Evaluate {
				t.Fatalf("trial %d: group %d evaluated despite α=0", trial, i)
			}
		}
		// Account for β·total rounding: the B&B needs Σ v·R ≥ β·total which
		// equals the threshold exactly by construction.
		if math.Abs(gotCost-wantWeight) > 1e-6 {
			t.Fatalf("trial %d: B&B cost %v, knapsack weight %v", trial, gotCost, wantWeight)
		}
	}
}

func TestSolvePerfectInfoLengthMismatch(t *testing.T) {
	_, _, err := SolvePerfectInfo(PerfectInfoInstance{Correct: []int{1}, Wrong: []int{1, 2}})
	if err == nil {
		t.Fatal("expected length mismatch error")
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
