package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// The end-to-end statistical checks of this package's algorithms run them
// the one way they ship: composed by internal/engine, on the same synthetic
// worlds the unit tests use, loaded as tables through the experiments
// harness. (core cannot import the engine; this external test package can.)

// intelWorld is the three-group world of the single-predicate checks.
func intelWorld(rng *stats.RNG) ([]core.Group, []bool, func(int) bool) {
	return core.SyntheticGroups(rng, []int{2000, 2000, 2000}, []float64{0.9, 0.5, 0.1})
}

func countTrue(n int, truth func(int) bool) int {
	total := 0
	for r := 0; r < n; r++ {
		if truth(r) {
			total++
		}
	}
	return total
}

// runEngine loads the world as an (id, g) table and runs the approximate
// statement over it, grouped on g.
func runEngine(t *testing.T, seed uint64, groups []core.Group, cons core.Constraints, preds ...experiments.Predicate) experiments.Run {
	t.Helper()
	tbl, err := experiments.GroupTable("world", groups)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.RunEngine(context.Background(), seed, tbl, cons, "g", preds...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunIntelSampleEndToEnd(t *testing.T) {
	rng := stats.NewRNG(601)
	groups, labels, truth := intelWorld(rng)
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	res := runEngine(t, rng.Uint64(), groups, cons, experiments.Predicate{Name: "f", Truth: truth})
	if res.Sampled == 0 {
		t.Fatal("no sampling happened")
	}
	if res.Evaluations < res.Sampled || res.Retrievals < res.Evaluations {
		t.Fatal("evaluation accounting inconsistent")
	}
	if res.Evaluations >= len(labels) {
		t.Fatalf("evaluated %d of %d tuples — no savings", res.Evaluations, len(labels))
	}
	m := core.ComputeMetrics(res.Rows, truth, countTrue(len(labels), truth))
	// A single run can miss (ρ=0.8) but with these wide margins it should
	// be extremely safe; treat failure as suspicious.
	if m.Precision < 0.7 || m.Recall < 0.7 {
		t.Fatalf("metrics far below constraints: %+v", m)
	}
	// Savings vs the naive baseline.
	in := experiments.Instance{Groups: groups, Meter: core.NewMeter(core.UDFFunc(truth)), Cons: cons}
	naive, err := experiments.RunNaive(in, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations >= naive.Evaluations {
		t.Fatalf("Intel-Sample evals %d not below Naive %d", res.Evaluations, naive.Evaluations)
	}
}

func TestRunIntelSampleSatisfactionRate(t *testing.T) {
	rng := stats.NewRNG(603)
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	const runs = 60
	ok := 0
	for i := 0; i < runs; i++ {
		groups, labels, truth := intelWorld(rng.Split())
		res := runEngine(t, rng.Uint64(), groups, cons, experiments.Predicate{Name: "f", Truth: truth})
		m := core.ComputeMetrics(res.Rows, truth, countTrue(len(labels), truth))
		pOK, rOK := m.Satisfies(cons)
		if pOK && rOK {
			ok++
		}
	}
	if frac := float64(ok) / runs; frac < 0.75 {
		t.Fatalf("constraints satisfied in only %v of runs", frac)
	}
}

func TestRunTwoPredicatesEndToEnd(t *testing.T) {
	rng := stats.NewRNG(1109)
	groups, l1, l2 := core.TwoPredWorld(rng,
		[]int{1500, 1500, 1500},
		[]float64{0.95, 0.5, 0.05},
		[]float64{0.9, 0.6, 0.5})
	// The engine does not expose the per-group actions, so the UDF bodies
	// count the calls each predicate receives in the dead group.
	dead := func(r int) bool { return r >= 3000 }
	var dead1, dead2 int
	f1 := experiments.Predicate{Name: "f1", Truth: func(r int) bool {
		if dead(r) {
			dead1++
		}
		return l1[r]
	}}
	f2 := experiments.Predicate{Name: "f2", Truth: func(r int) bool {
		if dead(r) {
			dead2++
		}
		return l2[r]
	}}
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	res := runEngine(t, rng.Uint64(), groups, cons, f1, f2)
	// Quality versus the conjunction ground truth.
	truth := func(r int) bool { return l1[r] && l2[r] }
	m := core.ComputeMetrics(res.Rows, truth, countTrue(len(l1), truth))
	if m.Precision < 0.7 || m.Recall < 0.7 {
		t.Fatalf("metrics collapsed: %+v", m)
	}
	// Must beat evaluating both predicates on every tuple.
	evalAllCost := float64(4500) * (core.DefaultCost.Retrieve + 2*core.DefaultCost.Evaluate)
	if res.Cost >= evalAllCost {
		t.Fatalf("cost %v not below eval-everything %v", res.Cost, evalAllCost)
	}
	// The near-zero sel1 group should mostly be discarded, not eval'd: the
	// two wasteful actions (evaluate f2, or both) are the only ones that
	// call f2 on a row of it the joint sample did not already pay for.
	sampledDead := core.DefaultAllocator(cons.Alpha).Allocate([]int{1500, 1500, 1500})[2]
	if dead2 != sampledDead || dead1 < sampledDead {
		t.Fatalf("wasteful action on dead group: f1 called %d times, f2 %d, joint sample %d", dead1, dead2, sampledDead)
	}
}

func TestRunTwoPredicatesSatisfactionRate(t *testing.T) {
	rng := stats.NewRNG(1111)
	cons := core.Constraints{Alpha: 0.75, Beta: 0.75, Rho: 0.8}
	const runs = 40
	ok := 0
	for i := 0; i < runs; i++ {
		groups, l1, l2 := core.TwoPredWorld(rng.Split(),
			[]int{1000, 1000, 1000},
			[]float64{0.9, 0.5, 0.1},
			[]float64{0.85, 0.7, 0.6})
		res := runEngine(t, rng.Uint64(), groups, cons,
			experiments.Predicate{Name: "f1", Truth: func(r int) bool { return l1[r] }},
			experiments.Predicate{Name: "f2", Truth: func(r int) bool { return l2[r] }})
		truth := func(r int) bool { return l1[r] && l2[r] }
		m := core.ComputeMetrics(res.Rows, truth, countTrue(len(l1), truth))
		pOK, rOK := m.Satisfies(cons)
		if pOK && rOK {
			ok++
		}
	}
	if frac := float64(ok) / runs; frac < 0.7 {
		t.Fatalf("constraints satisfied in only %v of runs", frac)
	}
}
