package core

import (
	"context"
	"maps"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/table"
)

func TestExecuteFullEvaluationReturnsExactAnswer(t *testing.T) {
	rng := stats.NewRNG(401)
	groups, labels, truth := syntheticGroups(rng, []int{200, 200}, []float64{0.7, 0.2})
	s := FullEvaluation(2)
	exec, err := ExecuteParallelCtx(context.Background(), groups, s, nil, NewMeter(UDFFunc(truth)), DefaultCost, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantCorrect := 0
	for _, v := range labels {
		if v {
			wantCorrect++
		}
	}
	if len(exec.Output) != wantCorrect {
		t.Fatalf("output %d rows, want %d", len(exec.Output), wantCorrect)
	}
	for _, row := range exec.Output {
		if !truth(row) {
			t.Fatalf("incorrect row %d in exact output", row)
		}
	}
	if exec.Retrieved != 400 || exec.Evaluated != 400 {
		t.Fatalf("retrieved %d evaluated %d, want 400/400", exec.Retrieved, exec.Evaluated)
	}
	if math.Abs(exec.Cost-400*4) > 1e-9 {
		t.Fatalf("cost %v", exec.Cost)
	}
}

func TestExecuteRetrieveOnlyReturnsEverything(t *testing.T) {
	rng := stats.NewRNG(403)
	groups, _, truth := syntheticGroups(rng, []int{150}, []float64{0.4})
	s := NewStrategy(1)
	s.R[0] = 1
	exec, err := ExecuteParallelCtx(context.Background(), groups, s, nil, NewMeter(UDFFunc(truth)), DefaultCost, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(exec.Output) != 150 || exec.Evaluated != 0 {
		t.Fatalf("output %d evaluated %d", len(exec.Output), exec.Evaluated)
	}
}

func TestExecuteDiscardAll(t *testing.T) {
	rng := stats.NewRNG(405)
	groups, _, truth := syntheticGroups(rng, []int{50}, []float64{0.5})
	exec, err := ExecuteParallelCtx(context.Background(), groups, NewStrategy(1), nil, NewMeter(UDFFunc(truth)), DefaultCost, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(exec.Output) != 0 || exec.Cost != 0 {
		t.Fatalf("discard-all produced output %d cost %v", len(exec.Output), exec.Cost)
	}
}

func TestExecuteHonorsSampledRows(t *testing.T) {
	rng := stats.NewRNG(407)
	groups, _, truth := syntheticGroups(rng, []int{100}, []float64{0.5})
	// Sample 10 rows by hand.
	sampled := map[int]bool{}
	for _, row := range groups[0].Rows[:10] {
		sampled[row] = truth(row)
	}
	samples := []SampleOutcome{{Results: table.CollectVerdicts(maps.All(sampled))}}
	calls := 0
	countingUDF := UDFFunc(func(row int) bool {
		calls++
		return truth(row)
	})
	s := FullEvaluation(1)
	exec, err := ExecuteParallelCtx(context.Background(), groups, s, samples, NewMeter(countingUDF), DefaultCost, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 90 unsampled rows get evaluated; sampled rows must not be touched.
	if calls != 90 || exec.Evaluated != 90 || exec.Retrieved != 90 {
		t.Fatalf("calls %d evaluated %d retrieved %d, want 90", calls, exec.Evaluated, exec.Retrieved)
	}
	// Sampled-true rows still appear in the output.
	outSet := map[int]bool{}
	for _, row := range exec.Output {
		outSet[row] = true
	}
	for row, v := range samples[0].Results.All() {
		if v && !outSet[row] {
			t.Fatalf("sampled-true row %d missing from output", row)
		}
		if !v && outSet[row] {
			t.Fatalf("sampled-false row %d present in output", row)
		}
	}
}

// TestExecuteOutputAscendingOnSparseUnorderedRows: the executor orders its
// answer itself. Groups hold sparse row ids just below 1<<20 in shuffled
// order; sampled rows carry a recorded outcome that contradicts the UDF, so
// the answer shows it was resolved from the sample. At pool widths 1 and 4
// the output is the same, strictly ascending, and holds exactly the rows
// the recorded outcomes and the strategy admit.
func TestExecuteOutputAscendingOnSparseUnorderedRows(t *testing.T) {
	rng := stats.NewRNG(411)
	var all []int
	for row := 1<<20 - 1; len(all) < 3000; row -= 1 + rng.IntN(40) {
		all = append(all, row)
	}
	rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	truth := func(row int) bool { return stats.Mix64(uint64(row))%3 == 0 }
	groups := []Group{{Key: "full", Rows: all[:1000]}, {Key: "retrieve", Rows: all[1000:2000]}, {Key: "coins", Rows: all[2000:]}}
	s := NewStrategy(3)
	s.R[0], s.E[0] = 1, 1
	s.R[1] = 1
	s.R[2], s.E[2] = 0.7, 0.4
	samples := make([]SampleOutcome, 3)
	want := map[int]bool{}
	for i, g := range groups {
		results := map[int]bool{}
		for k, row := range g.Rows {
			if k%9 == 0 {
				results[row] = !truth(row)
				if !truth(row) {
					want[row] = true
				}
			} else if i == 0 && truth(row) || i == 1 {
				want[row] = true
			}
		}
		samples[i].Results = table.CollectVerdicts(maps.All(results))
	}
	var first []int
	for _, width := range []int{1, 4} {
		pool := exec.NewPool(width)
		res, err := ExecuteSpansParallelCtx(context.Background(), groups, s, nil, samples, []*Meter{NewMeter(UDFFunc(truth))}, DefaultCost, stats.Key(5), pool)
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < len(res.Output); k++ {
			if res.Output[k-1] >= res.Output[k] {
				t.Fatalf("width %d: output not strictly ascending at %d: %d then %d", width, k, res.Output[k-1], res.Output[k])
			}
		}
		inCoins := map[int]bool{}
		for _, row := range groups[2].Rows {
			inCoins[row] = true
		}
		got := 0
		for _, row := range res.Output {
			_, sampled := slices.BinarySearch(samples[2].Results.Rows(), row)
			if inCoins[row] && !sampled {
				continue // decided by the coins
			}
			if !want[row] {
				t.Fatalf("width %d: row %d in the output, want it out", width, row)
			}
			got++
		}
		if got != len(want) {
			t.Fatalf("width %d: %d of the %d decided rows in the output", width, got, len(want))
		}
		if width == 1 {
			first = res.Output
		} else if !slices.Equal(res.Output, first) {
			t.Fatalf("width %d: output differs from width 1", width)
		}
	}
}

func TestExecuteStatisticalCounts(t *testing.T) {
	rng := stats.NewRNG(409)
	groups, _, truth := syntheticGroups(rng, []int{8000}, []float64{0.5})
	s := NewStrategy(1)
	s.R[0], s.E[0] = 0.6, 0.3
	exec, err := ExecuteParallelCtx(context.Background(), groups, s, nil, NewMeter(UDFFunc(truth)), DefaultCost, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(exec.Retrieved)-4800) > 200 {
		t.Fatalf("retrieved %d, want ≈4800", exec.Retrieved)
	}
	if math.Abs(float64(exec.Evaluated)-2400) > 200 {
		t.Fatalf("evaluated %d, want ≈2400", exec.Evaluated)
	}
	// Output = retrieved-not-evaluated + evaluated-true ≈ 2400 + 1200.
	if math.Abs(float64(len(exec.Output))-3600) > 250 {
		t.Fatalf("output %d, want ≈3600", len(exec.Output))
	}
}

func TestExecuteInputValidation(t *testing.T) {
	rng := stats.NewRNG(411)
	groups, _, truth := syntheticGroups(rng, []int{10}, []float64{0.5})
	if _, err := ExecuteParallelCtx(context.Background(), groups, NewStrategy(2), nil, NewMeter(UDFFunc(truth)), DefaultCost, rng, 1); err == nil {
		t.Fatal("group/strategy mismatch accepted")
	}
	if _, err := ExecuteParallelCtx(context.Background(), groups, NewStrategy(1), make([]SampleOutcome, 2), NewMeter(UDFFunc(truth)), DefaultCost, rng, 1); err == nil {
		t.Fatal("group/samples mismatch accepted")
	}
	bad := Strategy{R: []float64{0.5}, E: []float64{0.9}}
	if _, err := ExecuteParallelCtx(context.Background(), groups, bad, nil, NewMeter(UDFFunc(truth)), DefaultCost, rng, 1); err == nil {
		t.Fatal("invalid strategy accepted")
	}
}

func TestComputeMetrics(t *testing.T) {
	truth := func(row int) bool { return row < 5 }
	m := ComputeMetrics([]int{0, 1, 2, 7, 8}, truth, 5)
	if math.Abs(m.Precision-0.6) > 1e-12 {
		t.Fatalf("precision %v", m.Precision)
	}
	if math.Abs(m.Recall-0.6) > 1e-12 {
		t.Fatalf("recall %v", m.Recall)
	}
	pOK, rOK := m.Satisfies(Constraints{Alpha: 0.6, Beta: 0.7})
	if !pOK || rOK {
		t.Fatalf("Satisfies wrong: %v %v", pOK, rOK)
	}
	// Empty output: precision 1 by convention.
	m = ComputeMetrics(nil, truth, 5)
	if m.Precision != 1 || m.Recall != 0 {
		t.Fatalf("empty output metrics %+v", m)
	}
	// No correct tuples anywhere: recall 1 by convention.
	m = ComputeMetrics(nil, truth, 0)
	if m.Recall != 1 {
		t.Fatalf("zero-correct recall %v", m.Recall)
	}
}

func TestExecuteDeterministicWithSameSeed(t *testing.T) {
	groups, _, truth := syntheticGroups(stats.NewRNG(1), []int{500}, []float64{0.5})
	s := NewStrategy(1)
	s.R[0], s.E[0] = 0.5, 0.2
	run := func() []int {
		exec, err := ExecuteParallelCtx(context.Background(), groups, s, nil, NewMeter(UDFFunc(truth)), DefaultCost, stats.NewRNG(42), 1)
		if err != nil {
			t.Fatal(err)
		}
		out := append([]int(nil), exec.Output...)
		sort.Ints(out)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic output sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic output")
		}
	}
}

func TestExecuteAccountingInvariants(t *testing.T) {
	// Property: for any strategy, Retrieved ≥ Evaluated, the output is a
	// subset of the input rows, and the cost formula holds exactly.
	rng := stats.NewRNG(4242)
	f := func(seed uint32, rRaw, eRaw float64) bool {
		rr := stats.NewRNG(uint64(seed))
		groups, _, truth := syntheticGroups(rr, []int{300, 200}, []float64{0.6, 0.3})
		s := NewStrategy(2)
		s.R[0] = math.Abs(math.Mod(rRaw, 1))
		s.E[0] = s.R[0] * math.Abs(math.Mod(eRaw, 1))
		s.R[1] = math.Abs(math.Mod(eRaw*7, 1))
		s.E[1] = s.R[1] * math.Abs(math.Mod(rRaw*3, 1))
		exec, err := ExecuteParallelCtx(context.Background(), groups, s, nil, NewMeter(UDFFunc(truth)), DefaultCost, rng.Split(), 1)
		if err != nil {
			return false
		}
		if exec.Evaluated > exec.Retrieved {
			return false
		}
		valid := map[int]bool{}
		for _, g := range groups {
			for _, r := range g.Rows {
				valid[r] = true
			}
		}
		seen := map[int]bool{}
		for _, r := range exec.Output {
			if !valid[r] || seen[r] {
				return false
			}
			seen[r] = true
		}
		wantCost := DefaultCost.Retrieve*float64(exec.Retrieved) + DefaultCost.Evaluate*float64(exec.Evaluated)
		return math.Abs(exec.Cost-wantCost) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteOutputSupersetOfEvaluatedTrue(t *testing.T) {
	// Every tuple the executor evaluates as true must be in the output and
	// every evaluated-false tuple must not be (verified via a recording
	// UDF).
	rng := stats.NewRNG(4343)
	groups, _, truth := syntheticGroups(rng, []int{400}, []float64{0.5})
	evaluated := map[int]bool{}
	udf := UDFFunc(func(r int) bool {
		evaluated[r] = truth(r)
		return truth(r)
	})
	s := NewStrategy(1)
	s.R[0], s.E[0] = 0.7, 0.5
	exec, err := ExecuteParallelCtx(context.Background(), groups, s, nil, NewMeter(udf), DefaultCost, rng.Split(), 1)
	if err != nil {
		t.Fatal(err)
	}
	outSet := map[int]bool{}
	for _, r := range exec.Output {
		outSet[r] = true
	}
	for r, v := range evaluated {
		if v && !outSet[r] {
			t.Fatalf("evaluated-true row %d missing from output", r)
		}
		if !v && outSet[r] {
			t.Fatalf("evaluated-false row %d present in output", r)
		}
	}
}
