package core

import (
	"context"
	"testing"

	"repro/internal/stats"
)

func testInstance(rng *stats.RNG) (Instance, []bool, func(int) bool) {
	groups, labels, truth := syntheticGroups(rng, []int{2000, 2000, 2000}, []float64{0.9, 0.5, 0.1})
	in := Instance{
		Groups: groups,
		UDF:    UDFFunc(truth),
		Cons:   Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8},
		Cost:   DefaultCost,
	}
	return in, labels, truth
}

func totalCorrect(labels []bool) int {
	n := 0
	for _, v := range labels {
		if v {
			n++
		}
	}
	return n
}

func TestRunIntelSampleEndToEnd(t *testing.T) {
	rng := stats.NewRNG(601)
	in, labels, truth := testInstance(rng)
	res, err := RunIntelSample(context.Background(), in, RunOptions{RNG: rng.Split()})
	if err != nil {
		t.Fatal(err)
	}
	if res.SampledTuples == 0 {
		t.Fatal("no sampling happened")
	}
	if res.TotalEvaluations != res.SampledTuples+res.Evaluated {
		t.Fatal("evaluation accounting inconsistent")
	}
	if res.TotalEvaluations >= in.TotalRows() {
		t.Fatalf("evaluated %d of %d tuples — no savings", res.TotalEvaluations, in.TotalRows())
	}
	m := ComputeMetrics(res.Output, truth, totalCorrect(labels))
	// A single run can miss (ρ=0.8) but with these wide margins it should
	// be extremely safe; treat failure as suspicious.
	if m.Precision < 0.7 || m.Recall < 0.7 {
		t.Fatalf("metrics far below constraints: %+v", m)
	}
	// Savings vs the naive baseline.
	naive, err := RunNaive(in, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEvaluations >= naive.TotalEvaluations {
		t.Fatalf("Intel-Sample evals %d not below Naive %d", res.TotalEvaluations, naive.TotalEvaluations)
	}
}

func TestRunIntelSampleSatisfactionRate(t *testing.T) {
	rng := stats.NewRNG(603)
	const runs = 60
	ok := 0
	for i := 0; i < runs; i++ {
		in, labels, truth := testInstance(rng.Split())
		res, err := RunIntelSample(context.Background(), in, RunOptions{RNG: rng.Split()})
		if err != nil {
			t.Fatal(err)
		}
		m := ComputeMetrics(res.Output, truth, totalCorrect(labels))
		pOK, rOK := m.Satisfies(in.Cons)
		if pOK && rOK {
			ok++
		}
	}
	if frac := float64(ok) / runs; frac < 0.75 {
		t.Fatalf("constraints satisfied in only %v of runs", frac)
	}
}

func TestRunIntelSampleAdaptive(t *testing.T) {
	rng := stats.NewRNG(605)
	in, labels, truth := testInstance(rng)
	res, err := RunIntelSample(context.Background(), in, RunOptions{RNG: rng.Split(), Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SampledTuples == 0 {
		t.Fatal("adaptive run sampled nothing")
	}
	m := ComputeMetrics(res.Output, truth, totalCorrect(labels))
	if m.Precision < 0.6 || m.Recall < 0.6 {
		t.Fatalf("adaptive metrics collapsed: %+v", m)
	}
}

func TestRunIntelSampleValidation(t *testing.T) {
	rng := stats.NewRNG(607)
	in, _, _ := testInstance(rng)
	if _, err := RunIntelSample(context.Background(), in, RunOptions{}); err == nil {
		t.Fatal("missing RNG accepted")
	}
	bad := in
	bad.Groups = nil
	if _, err := RunIntelSample(context.Background(), bad, RunOptions{RNG: rng}); err == nil {
		t.Fatal("empty instance accepted")
	}
	bad = in
	bad.UDF = nil
	if _, err := RunIntelSample(context.Background(), bad, RunOptions{RNG: rng}); err == nil {
		t.Fatal("nil UDF accepted")
	}
	bad = in
	bad.Cons.Alpha = 7
	if _, err := RunIntelSample(context.Background(), bad, RunOptions{RNG: rng}); err == nil {
		t.Fatal("invalid constraints accepted")
	}
}

func TestRunNaive(t *testing.T) {
	rng := stats.NewRNG(609)
	in, labels, truth := testInstance(rng)
	res, err := RunNaive(in, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	wantK := int(0.8*float64(in.TotalRows())) + 1
	if res.TotalEvaluations < wantK-1 || res.TotalEvaluations > wantK+1 {
		t.Fatalf("naive evaluated %d, want ≈%d", res.TotalEvaluations, wantK)
	}
	m := ComputeMetrics(res.Output, truth, totalCorrect(labels))
	if m.Precision != 1 {
		t.Fatalf("naive precision %v, must be exactly 1", m.Precision)
	}
	if m.Recall < 0.74 || m.Recall > 0.86 {
		t.Fatalf("naive recall %v, want ≈0.8", m.Recall)
	}
}

func TestRunPerfectSelectivities(t *testing.T) {
	rng := stats.NewRNG(611)
	in, labels, truth := testInstance(rng)
	res, err := RunPerfectSelectivities(context.Background(), in, truth, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	if res.SampledTuples != 0 {
		t.Fatal("Optimal baseline must not sample")
	}
	m := ComputeMetrics(res.Output, truth, totalCorrect(labels))
	if m.Precision < 0.7 || m.Recall < 0.7 {
		t.Fatalf("optimal metrics collapsed: %+v", m)
	}
	// With free perfect knowledge, Optimal should beat Intel-Sample on
	// total evaluations (which pays for sampling).
	intel, err := RunIntelSample(context.Background(), in, RunOptions{RNG: rng.Split()})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEvaluations > intel.TotalEvaluations+200 {
		t.Fatalf("Optimal evals %d much worse than Intel-Sample %d", res.TotalEvaluations, intel.TotalEvaluations)
	}
}

func TestPerfectInfoWrapper(t *testing.T) {
	groups := []PerfectInfoGroup{
		{Key: "1", Correct: 900, Wrong: 100},
		{Key: "2", Correct: 500, Wrong: 500},
		{Key: "3", Correct: 100, Wrong: 900},
	}
	cons := Constraints{Alpha: 0.9, Beta: 0.9, Rho: 0.9}
	plan, err := SolvePerfectInformation(groups, cons, DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost != 5000 {
		t.Fatalf("cost %v want 5000", plan.Cost)
	}
	s := plan.Strategy()
	if s.R[0] != 1 || s.E[0] != 0 {
		t.Fatalf("group 1 should be retrieve-only: R=%v E=%v", s.R[0], s.E[0])
	}
	if s.R[1] != 1 || s.E[1] != 1 {
		t.Fatalf("group 2 should be evaluated: R=%v E=%v", s.R[1], s.E[1])
	}
	if s.R[2] != 0 {
		t.Fatalf("group 3 should be discarded: R=%v", s.R[2])
	}
	greedy, err := GreedyPerfectInformation(groups, cons, DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Cost < plan.Cost-1e-9 {
		t.Fatalf("greedy cost %v beats exact %v", greedy.Cost, plan.Cost)
	}
	if _, err := SolvePerfectInformation(nil, cons, DefaultCost); err == nil {
		t.Fatal("empty groups accepted")
	}
	if _, err := SolvePerfectInformation([]PerfectInfoGroup{{Correct: -1}}, cons, DefaultCost); err == nil {
		t.Fatal("negative counts accepted")
	}
}
