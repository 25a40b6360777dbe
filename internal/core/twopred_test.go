package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/stats"
)

// twoPredWorld draws labels for f1 and f2 per group from independent
// Bernoullis with the given selectivities; then, on a random |share| of
// rows, f2 copies f1 (share > 0) or its negation (share < 0), which
// correlates the two predicates within every group. Share 0 draws nothing
// more.
func twoPredWorld(rng *stats.RNG, sizes []int, sel1, sel2 []float64, share float64) ([]Group, []bool, []bool) {
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
			if rng.Bernoulli(math.Abs(share)) {
				l2[row] = l1[row] == (share > 0)
			}
			row++
		}
		groups[gi] = Group{Key: string(rune('A' + gi)), Rows: rows}
	}
	return groups, l1, l2
}

// runTwoPred composes the three §5 steps at core level — what the engine
// runs as its conj-sample → conj-solve → conj-exec stages — for the tests
// that pin core's own parallelism, cancellation and failure behaviour.
func runTwoPred(ctx context.Context, groups []Group, m1, m2 *Meter, cons Constraints, targets []int, rng *stats.RNG, parallelism int) (ExecResult, []TwoPredAction, []SampleOutcome, error) {
	s := NewJointSampler(groups, []*Meter{m1, m2}, stats.Key(rng.Uint64()))
	s.SetParallelism(parallelism)
	if _, err := s.TopUpCtx(ctx, targets); err != nil {
		return ExecResult{}, nil, nil, err
	}
	acts := PlanTwoPredicatesFromSamples(groups, s.Outcomes(), cons, DefaultCost)
	res, err := executeActions(ctx, groups, acts, s.Outcomes(), m1, m2, parallelism)
	return res, acts, s.Outcomes(), err
}

// executeActions runs per-group §5 actions through the coin executor.
func executeActions(ctx context.Context, groups []Group, acts []TwoPredAction, samples []SampleOutcome, m1, m2 *Meter, parallelism int) (ExecResult, error) {
	s, spans, err := TwoPredStrategy(acts)
	if err != nil {
		return ExecResult{}, err
	}
	pool := exec.NewPool(parallelism)
	defer pool.Close()
	return ExecuteSpansParallelCtx(ctx, groups, s, spans, samples, []*Meter{m1, m2}, DefaultCost, stats.Key(1), pool)
}

// defaultTargets is the engine's sampling allocation over groups.
func defaultTargets(groups []Group, cons Constraints) []int {
	sizes := make([]int, len(groups))
	for i, g := range groups {
		sizes[i] = len(g.Rows)
	}
	return DefaultAllocator(cons.Alpha).Allocate(sizes)
}

// TestSampleTwoPredicates checks the §5 sampling step: the sampler over
// two meters, whose per-group counts feed the five-action planner.
func TestSampleTwoPredicates(t *testing.T) {
	rng := stats.NewRNG(1101)
	groups, l1, l2 := twoPredWorld(rng, []int{500, 500}, []float64{0.9, 0.2}, []float64{0.7, 0.7}, 0)
	udfs := []UDF{
		UDFFunc(func(r int) bool { return l1[r] }),
		UDFFunc(func(r int) bool { return l2[r] }),
	}
	s := NewJointSampler(groups, metered(udfs...), stats.Key(rng.Uint64()))
	if _, err := s.TopUpCtx(context.Background(), []int{100, 100}); err != nil {
		t.Fatal(err)
	}
	samples := s.Outcomes()
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
	for _, o := range samples {
		if o.Positives > o.Pos[0] || o.Positives > o.Pos[1] {
			t.Fatalf("inconsistent counts %+v", o)
		}
	}
	if _, err := s.TopUpCtx(context.Background(), []int{1}); err == nil {
		t.Fatal("mismatched targets accepted")
	}
}

// TestJointSampleDropsFailedRows pins the §5 evidence rule the meter
// re-wrap used to hide: a row whose evaluation failed under either
// predicate is no evidence — it is absent from the joint sample, from the
// selectivity counts, and from the pipeline's output.
func TestJointSampleDropsFailedRows(t *testing.T) {
	rng := stats.NewRNG(1113)
	groups, l1, l2 := twoPredWorld(rng, []int{600, 600}, []float64{0.8, 0.3}, []float64{0.7, 0.6}, 0)
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
	for gi, o := range samples {
		sampled += len(o.Results)
		pos := []int{0, 0}
		for row, v := range o.Results {
			if fails1(row) || fails2(row) {
				t.Fatalf("group %d: failed row %d entered the joint sample", gi, row)
			}
			if v != (l1[row] && l2[row]) {
				t.Fatalf("group %d: row %d sampled as %v", gi, row, v)
			}
			for j, l := range [][]bool{l1, l2} {
				if l[row] {
					pos[j]++
				}
			}
		}
		if !reflect.DeepEqual(pos, o.Pos) {
			t.Fatalf("group %d: counts %v disagree with results %v", gi, o.Pos, pos)
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
	groups, l1, l2 := twoPredWorld(rng, []int{200}, []float64{0.5}, []float64{0.5}, 0)
	u1 := UDFFunc(func(r int) bool { return l1[r] })
	u2 := UDFFunc(func(r int) bool { return l2[r] })

	check := func(act TwoPredAction, wantMember func(r int) bool, wantE1, wantE2 int) {
		t.Helper()
		m1, m2 := NewMeter(u1), NewMeter(u2)
		res, err := executeActions(context.Background(), groups, []TwoPredAction{act}, nil, m1, m2, 1)
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
		if m1.Calls() != wantE1 || m2.Calls() != wantE2 || res.Evaluated != wantE1+wantE2 {
			t.Fatalf("action %v: evaluated %d + %d (total %d), want %d + %d",
				act, m1.Calls(), m2.Calls(), res.Evaluated, wantE1, wantE2)
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
	groups, l1, l2 := twoPredWorld(rng, []int{100}, []float64{0.5}, []float64{0.5}, 0)
	calls1, calls2 := 0, 0
	u1 := UDFFunc(func(r int) bool { calls1++; return l1[r] })
	u2 := UDFFunc(func(r int) bool { calls2++; return l2[r] })
	samples := []SampleOutcome{{Results: map[int]bool{}}}
	for _, row := range groups[0].Rows[:30] {
		samples[0].Results[row] = l1[row] && l2[row]
	}
	res, err := executeActions(context.Background(), groups, []TwoPredAction{TPEvalBoth}, samples, NewMeter(u1), NewMeter(u2), 1)
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
		if v != outSet[row] {
			t.Fatalf("sampled row %d membership wrong", row)
		}
	}
}

func TestExecuteTwoPredicatesValidation(t *testing.T) {
	rng := stats.NewRNG(1107)
	groups, l1, l2 := twoPredWorld(rng, []int{10}, []float64{0.5}, []float64{0.5}, 0)
	u1 := UDFFunc(func(r int) bool { return l1[r] })
	u2 := UDFFunc(func(r int) bool { return l2[r] })
	if _, err := executeActions(context.Background(), groups, nil, nil, NewMeter(u1), NewMeter(u2), 1); err == nil {
		t.Fatal("missing actions accepted")
	}
	if _, err := executeActions(context.Background(), groups, []TwoPredAction{99}, nil, NewMeter(u1), NewMeter(u2), 1); err == nil {
		t.Fatal("invalid action accepted")
	}
	if _, err := executeActions(context.Background(), groups, []TwoPredAction{TPDiscard}, make([]SampleOutcome, 2), NewMeter(u1), NewMeter(u2), 1); err == nil {
		t.Fatal("mismatched samples accepted")
	}
	// A span must lie within the meters it indexes, and cover one group each.
	for _, spans := range [][]Span{{{1, 3}}, {{1, 0}}, {{0, 1}, {0, 1}}} {
		if _, err := ExecuteSpansParallelCtx(context.Background(), groups, FullEvaluation(1), spans, nil,
			[]*Meter{NewMeter(u1), NewMeter(u2)}, DefaultCost, stats.Key(1), exec.NewPool(1)); err == nil {
			t.Fatalf("spans %v accepted", spans)
		}
	}
}
