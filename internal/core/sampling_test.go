package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/stats"
)

func TestTwoThirdPowerAllocator(t *testing.T) {
	sizes := []int{1000, 2000, 3000}
	n := 6000.0
	a := TwoThirdPowerAllocator{Num: 2.5}
	got := a.Allocate(sizes)
	for i, sz := range sizes {
		want := int(math.Round(2.5 * float64(sz) * math.Pow(n, -1.0/3.0)))
		if got[i] != want {
			t.Fatalf("group %d: alloc %d want %d", i, got[i], want)
		}
	}
	// Total sampling grows like n^(2/3).
	small := TwoThirdPowerAllocator{Num: 1}.Allocate([]int{1000})
	big := TwoThirdPowerAllocator{Num: 1}.Allocate([]int{8000})
	ratio := float64(big[0]) / float64(small[0])
	if math.Abs(ratio-4) > 0.3 { // (8000/1000)^(2/3) = 4
		t.Fatalf("scaling ratio %v, want ≈4", ratio)
	}
	if a.Allocate(nil) != nil {
		// empty allocation allowed
		t.Log("empty sizes handled")
	}
}

// TestNthSmallestMatchesSort checks the sampler's rank selection against a
// full sort, on hashed ranks and on small ranges full of duplicates.
func TestNthSmallestMatchesSort(t *testing.T) {
	rng := stats.NewRNG(7)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.IntN(200)
		a := make([]uint64, n)
		for i := range a {
			if trial%2 == 0 {
				a[i] = rng.Uint64()
			} else {
				a[i] = uint64(rng.IntN(5))
			}
		}
		sorted := slices.Sorted(slices.Values(a))
		k := rng.IntN(n)
		if got := nthSmallest(slices.Clone(a), k); got != sorted[k] {
			t.Fatalf("trial %d: nthSmallest(%v, %d) = %d, want %d", trial, a, k, got, sorted[k])
		}
	}
}

func TestSamplerTopUpNoDuplicates(t *testing.T) {
	rng := stats.NewRNG(501)
	groups, _, truth := syntheticGroups(rng, []int{100, 50}, []float64{0.6, 0.3})
	meter := NewMeter(UDFFunc(truth))
	s := NewSampler(groups, meter, rng.Split())
	if _, err := s.TopUpCtx(context.Background(), []int{10, 5}); err != nil {
		t.Fatal(err)
	}
	if s.TotalSampled() != 15 || meter.Calls() != 15 {
		t.Fatalf("sampled %d calls %d", s.TotalSampled(), meter.Calls())
	}
	// Top up further: only the delta is evaluated.
	if _, err := s.TopUpCtx(context.Background(), []int{30, 5}); err != nil {
		t.Fatal(err)
	}
	if s.TotalSampled() != 35 || meter.Calls() != 35 {
		t.Fatalf("after top-up: sampled %d calls %d", s.TotalSampled(), meter.Calls())
	}
	// Lowering targets is a no-op.
	if _, err := s.TopUpCtx(context.Background(), []int{1, 1}); err != nil {
		t.Fatal(err)
	}
	if s.TotalSampled() != 35 {
		t.Fatalf("lowering target changed samples: %d", s.TotalSampled())
	}
	// Over-asking caps at group size.
	if _, err := s.TopUpCtx(context.Background(), []int{1000, 1000}); err != nil {
		t.Fatal(err)
	}
	if s.TotalSampled() != 150 {
		t.Fatalf("over-ask sampled %d, want 150", s.TotalSampled())
	}
	// All sampled rows are distinct and within their groups.
	for i, o := range s.Outcomes() {
		inGroup := map[int]bool{}
		for _, r := range groups[i].Rows {
			inGroup[r] = true
		}
		for row := range o.Results.All() {
			if !inGroup[row] {
				t.Fatalf("sampled row %d not in group %d", row, i)
			}
		}
	}
}

func TestSamplerTargetsMismatch(t *testing.T) {
	rng := stats.NewRNG(503)
	groups, _, truth := syntheticGroups(rng, []int{10}, []float64{0.5})
	s := NewSampler(groups, NewMeter(UDFFunc(truth)), rng)
	if _, err := s.TopUpCtx(context.Background(), []int{1, 2}); err == nil {
		t.Fatal("mismatched targets accepted")
	}
}

func TestSamplerInfosMatchPosterior(t *testing.T) {
	rng := stats.NewRNG(505)
	groups, _, truth := syntheticGroups(rng, []int{400}, []float64{0.75})
	s := NewSampler(groups, NewMeter(UDFFunc(truth)), rng.Split())
	if _, err := s.TopUpCtx(context.Background(), []int{100}); err != nil {
		t.Fatal(err)
	}
	infos := s.Infos()
	o := s.Outcomes()[0]
	want := GroupInfoFromSample(400, 100, o.Results.Trues())
	if infos[0] != want {
		t.Fatalf("info %+v want %+v", infos[0], want)
	}
	// The estimate should be near the true selectivity.
	if math.Abs(infos[0].Selectivity-0.75) > 0.15 {
		t.Fatalf("estimate %v far from 0.75", infos[0].Selectivity)
	}
}

func TestAllocatorStrings(t *testing.T) {
	if (TwoThirdPowerAllocator{Num: 2.5}).String() != "two-third-power(2.50)" {
		t.Fatal("two-third-power name")
	}
}

// TestSampleConjunctionEstimates: a sampler over three predicates records,
// per sampled row, whether it passed all of them, counts each predicate's
// passes, and pools those into per-predicate selectivities.
func TestSampleConjunctionEstimates(t *testing.T) {
	groups := conjGroups(400)
	udfs := []UDF{
		UDFFunc(func(row int) bool { return row%4 == 0 }),  // sel 0.25
		UDFFunc(func(row int) bool { return row < 300 }),   // sel 0.75
		UDFFunc(func(row int) bool { return row%10 != 0 }), // sel 0.9
	}
	s := NewJointSampler(groups, metered(udfs...), stats.Key(3))
	s.SetParallelism(4)
	if _, err := s.TopUpCtx(context.Background(), []int{60, 60}); err != nil {
		t.Fatal(err)
	}
	sels := s.Selectivities()
	if len(s.Outcomes()) != 2 || len(sels) != 3 {
		t.Fatalf("got %d samples, %d sels", len(s.Outcomes()), len(sels))
	}
	for i, o := range s.Outcomes() {
		if o.Results.Len() != 60 {
			t.Fatalf("group %d sampled %d rows, want 60", i, o.Results.Len())
		}
		pos, all := make([]int, len(udfs)), 0
		for row, v := range o.Results.All() {
			want := true
			for j, u := range udfs {
				if u.Eval(row) {
					pos[j]++
				} else {
					want = false
				}
			}
			if v != want {
				t.Fatalf("row %d recorded %v, want %v", row, v, want)
			}
			if v {
				all++
			}
		}
		if !reflect.DeepEqual(o.Pos, pos) || o.Results.Trues() != all {
			t.Fatalf("group %d counted %v / %d, results hold %v / %d", i, o.Pos, o.Results.Trues(), pos, all)
		}
	}
	approx := []float64{0.25, 0.75, 0.9}
	for j, want := range approx {
		if math.Abs(sels[j]-want) > 0.15 {
			t.Fatalf("sel[%d] = %v, want ≈%v", j, sels[j], want)
		}
	}
}

func TestSampleConjunctionDeterministicAcrossParallelism(t *testing.T) {
	groups := conjGroups(300)
	udfs := []UDF{
		UDFFunc(func(row int) bool { return row%3 == 0 }),
		UDFFunc(func(row int) bool { return row%5 != 0 }),
	}
	run := func(par int) ([]SampleOutcome, []float64) {
		s := NewJointSampler(groups, metered(udfs...), stats.Key(17))
		s.SetParallelism(par)
		if _, err := s.TopUpCtx(context.Background(), []int{40, 40}); err != nil {
			t.Fatal(err)
		}
		return s.Outcomes(), s.Selectivities()
	}
	s1, sel1 := run(1)
	s8, sel8 := run(8)
	if !reflect.DeepEqual(s1, s8) || !reflect.DeepEqual(sel1, sel8) {
		t.Fatal("sampling diverged across parallelism levels")
	}
}
