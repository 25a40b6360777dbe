package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/stats"
)

// twoPredWorld builds groups with independent per-group selectivities for
// two predicates.
func twoPredWorld(rng *stats.RNG, sizes []int, sel1, sel2 []float64) ([]Group, []bool, []bool) {
	total := 0
	for _, s := range sizes {
		total += s
	}
	l1 := make([]bool, total)
	l2 := make([]bool, total)
	groups := make([]Group, len(sizes))
	row := 0
	for gi, size := range sizes {
		rows := make([]int, size)
		for k := 0; k < size; k++ {
			rows[k] = row
			l1[row] = rng.Bernoulli(sel1[gi])
			l2[row] = rng.Bernoulli(sel2[gi])
			row++
		}
		groups[gi] = Group{Key: string(rune('A' + gi)), Rows: rows}
	}
	return groups, l1, l2
}

// runTwoPred composes the three §5 steps at core level — what the engine
// runs as its conj-sample → conj-solve → conj-exec stages — for the tests
// that pin core's own parallelism, cancellation and failure behaviour.
func runTwoPred(ctx context.Context, groups []Group, m1, m2 *Meter, cons Constraints, targets []int, rng *stats.RNG, parallelism int) (TwoPredExecResult, []TwoPredAction, []ConjSample, error) {
	samples, _, err := SampleConjunctionParallelCtx(ctx, groups, targets, []*Meter{m1, m2}, rng.Split(), parallelism)
	if err != nil {
		return TwoPredExecResult{}, nil, nil, err
	}
	acts := PlanTwoPredicatesFromSamples(groups, samples, cons, DefaultCost)
	res, err := ExecuteTwoPredicatesParallelCtx(ctx, groups, acts, samples, m1, m2, DefaultCost, parallelism)
	return res, acts, samples, err
}

// defaultTargets is the engine's sampling allocation, TwoThirdPower(2.5·α).
func defaultTargets(groups []Group, cons Constraints) []int {
	sizes := make([]int, len(groups))
	for i, g := range groups {
		sizes[i] = len(g.Rows)
	}
	return TwoThirdPowerAllocator{Num: 2.5 * cons.Alpha}.Allocate(sizes)
}

// TestSampleTwoPredicates checks the §5 sampling step: the N-ary joint
// sampler at N=2, whose per-group counts feed the five-action planner.
func TestSampleTwoPredicates(t *testing.T) {
	rng := stats.NewRNG(1101)
	groups, l1, l2 := twoPredWorld(rng, []int{500, 500}, []float64{0.9, 0.2}, []float64{0.7, 0.7})
	udfs := []UDF{
		UDFFunc(func(r int) bool { return l1[r] }),
		UDFFunc(func(r int) bool { return l2[r] }),
	}
	samples, _, err := SampleConjunctionParallelCtx(context.Background(), groups, []int{100, 100}, metered(udfs...), rng.Split(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples[0].Results) != 100 {
		t.Fatalf("sampled %d", len(samples[0].Results))
	}
	sel := func(g, j int) float64 {
		return stats.NewBetaPosterior(samples[g].Pos[j], 100-samples[g].Pos[j]).Mean()
	}
	if math.Abs(sel(0, 0)-0.9) > 0.1 || math.Abs(sel(1, 0)-0.2) > 0.12 {
		t.Fatalf("sel1 estimates %v / %v", sel(0, 0), sel(1, 0))
	}
	if math.Abs(sel(0, 1)-0.7) > 0.12 {
		t.Fatalf("sel2 estimate %v", sel(0, 1))
	}
	// Counts are internally consistent.
	for _, s := range samples {
		if s.PosAll > s.Pos[0] || s.PosAll > s.Pos[1] {
			t.Fatalf("inconsistent counts %+v", s)
		}
	}
	if _, _, err := SampleConjunctionParallelCtx(context.Background(), groups, []int{1}, metered(udfs...), rng, 1); err == nil {
		t.Fatal("mismatched targets accepted")
	}
}

// TestJointSampleDropsFailedRows pins the §5 evidence rule the meter
// re-wrap used to hide: a row whose evaluation failed under either
// predicate is no evidence — it is absent from the joint sample, from the
// selectivity counts, and from the pipeline's output.
func TestJointSampleDropsFailedRows(t *testing.T) {
	rng := stats.NewRNG(1113)
	groups, l1, l2 := twoPredWorld(rng, []int{600, 600}, []float64{0.8, 0.3}, []float64{0.7, 0.6})
	fails1 := func(r int) bool { return r%7 == 0 }
	fails2 := func(r int) bool { return r%11 == 0 }
	meter := func(labels []bool, fails func(int) bool) *Meter {
		return NewResilientMeter(fallibleFunc(func(_ context.Context, r int) (bool, error) {
			if fails(r) {
				return false, errors.New("value-keyed failure")
			}
			return labels[r], nil
		}), nil, nil)
	}
	cons := Constraints{Alpha: 0.75, Beta: 0.75, Rho: 0.8}
	res, acts, samples, err := runTwoPred(context.Background(), groups,
		meter(l1, fails1), meter(l2, fails2), cons, []int{300, 300}, rng.Split(), 4)
	if err != nil {
		t.Fatal(err)
	}
	sampled := 0
	for gi, s := range samples {
		sampled += len(s.Results)
		pos := [2]int{}
		for row, outs := range s.Results {
			if fails1(row) || fails2(row) {
				t.Fatalf("group %d: failed row %d entered the joint sample", gi, row)
			}
			if outs[0] != l1[row] || outs[1] != l2[row] {
				t.Fatalf("group %d: row %d sampled as %v", gi, row, outs)
			}
			for j, v := range outs {
				if v {
					pos[j]++
				}
			}
		}
		if pos[0] != s.Pos[0] || pos[1] != s.Pos[1] {
			t.Fatalf("group %d: counts %v disagree with results %v", gi, s.Pos, pos)
		}
	}
	// 600 rows were drawn; the value-keyed failures (~22%) must be missing.
	if sampled == 0 || sampled >= 600 {
		t.Fatalf("joint sample holds %d of 600 drawn rows", sampled)
	}
	// A failed evaluation never verifies a row: a row that failed under a
	// predicate is emitted only by an action that assumes that predicate.
	emitted := map[int]bool{}
	for _, row := range res.Output {
		emitted[row] = true
	}
	for gi, g := range groups {
		eval1 := acts[gi] == TPEval1Assume2 || acts[gi] == TPEvalBoth
		eval2 := acts[gi] == TPAssume1Eval2 || acts[gi] == TPEvalBoth
		for _, row := range g.Rows {
			if emitted[row] && ((eval1 && fails1(row)) || (eval2 && fails2(row))) {
				t.Fatalf("group %d (%v): row %d emitted despite a failed evaluation", gi, acts[gi], row)
			}
		}
	}
}

func TestExecuteTwoPredicatesSemantics(t *testing.T) {
	rng := stats.NewRNG(1103)
	groups, l1, l2 := twoPredWorld(rng, []int{200}, []float64{0.5}, []float64{0.5})
	u1 := UDFFunc(func(r int) bool { return l1[r] })
	u2 := UDFFunc(func(r int) bool { return l2[r] })

	check := func(act TwoPredAction, wantMember func(r int) bool, wantE1, wantE2 int) {
		t.Helper()
		res, err := ExecuteTwoPredicatesParallelCtx(context.Background(), groups, []TwoPredAction{act}, nil, NewMeter(u1), NewMeter(u2), DefaultCost, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Output {
			if !wantMember(r) {
				t.Fatalf("action %v: row %d should not be in output", act, r)
			}
		}
		want := 0
		for r := 0; r < 200; r++ {
			if wantMember(r) {
				want++
			}
		}
		if len(res.Output) != want {
			t.Fatalf("action %v: output %d want %d", act, len(res.Output), want)
		}
		if wantE1 >= 0 && res.Evaluated1 != wantE1 {
			t.Fatalf("action %v: evaluated1 %d want %d", act, res.Evaluated1, wantE1)
		}
		if wantE2 >= 0 && res.Evaluated2 != wantE2 {
			t.Fatalf("action %v: evaluated2 %d want %d", act, res.Evaluated2, wantE2)
		}
	}

	check(TPDiscard, func(r int) bool { return false }, 0, 0)
	check(TPAssumeBoth, func(r int) bool { return true }, 0, 0)
	check(TPEval1Assume2, func(r int) bool { return l1[r] }, 200, 0)
	check(TPAssume1Eval2, func(r int) bool { return l2[r] }, 0, 200)
	// EvalBoth short-circuits: f2 evaluated only on f1 survivors.
	pass1 := 0
	for r := 0; r < 200; r++ {
		if l1[r] {
			pass1++
		}
	}
	check(TPEvalBoth, func(r int) bool { return l1[r] && l2[r] }, 200, pass1)
}

func TestExecuteTwoPredicatesHonorsSamples(t *testing.T) {
	rng := stats.NewRNG(1105)
	groups, l1, l2 := twoPredWorld(rng, []int{100}, []float64{0.5}, []float64{0.5})
	calls1, calls2 := 0, 0
	u1 := UDFFunc(func(r int) bool { calls1++; return l1[r] })
	u2 := UDFFunc(func(r int) bool { calls2++; return l2[r] })
	samples := []ConjSample{{Results: map[int][]bool{}}}
	for _, row := range groups[0].Rows[:30] {
		samples[0].Results[row] = []bool{l1[row], l2[row]}
	}
	res, err := ExecuteTwoPredicatesParallelCtx(context.Background(), groups, []TwoPredAction{TPEvalBoth}, samples, NewMeter(u1), NewMeter(u2), DefaultCost, 1)
	if err != nil {
		t.Fatal(err)
	}
	if calls1 != 70 {
		t.Fatalf("f1 called %d times, want 70", calls1)
	}
	if res.Retrieved != 70 {
		t.Fatalf("retrieved %d want 70", res.Retrieved)
	}
	// Sampled rows passing both must be in the output.
	outSet := map[int]bool{}
	for _, r := range res.Output {
		outSet[r] = true
	}
	for row, v := range samples[0].Results {
		if (v[0] && v[1]) != outSet[row] {
			t.Fatalf("sampled row %d membership wrong", row)
		}
	}
}

func TestExecuteTwoPredicatesValidation(t *testing.T) {
	rng := stats.NewRNG(1107)
	groups, l1, l2 := twoPredWorld(rng, []int{10}, []float64{0.5}, []float64{0.5})
	u1 := UDFFunc(func(r int) bool { return l1[r] })
	u2 := UDFFunc(func(r int) bool { return l2[r] })
	if _, err := ExecuteTwoPredicatesParallelCtx(context.Background(), groups, nil, nil, NewMeter(u1), NewMeter(u2), DefaultCost, 1); err == nil {
		t.Fatal("missing actions accepted")
	}
	if _, err := ExecuteTwoPredicatesParallelCtx(context.Background(), groups, []TwoPredAction{99}, nil, NewMeter(u1), NewMeter(u2), DefaultCost, 1); err == nil {
		t.Fatal("invalid action accepted")
	}
	if _, err := ExecuteTwoPredicatesParallelCtx(context.Background(), groups, []TwoPredAction{TPDiscard}, make([]ConjSample, 2), NewMeter(u1), NewMeter(u2), DefaultCost, 1); err == nil {
		t.Fatal("mismatched samples accepted")
	}
}
