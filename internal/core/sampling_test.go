package core

import (
	"context"
	"math"
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
		for row := range o.Results {
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
	want := GroupInfoFromSample(400, 100, o.Positives)
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
