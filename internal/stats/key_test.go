package stats

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

func TestKeySubDistinct(t *testing.T) {
	seen := map[Key]bool{}
	for seed := Key(0); seed < 4; seed++ {
		for tag := uint64(0); tag < 64; tag++ {
			k := seed.Sub(tag)
			if seen[k] {
				t.Fatalf("Key(%d).Sub(%d) repeats an earlier key", seed, tag)
			}
			seen[k] = true
		}
	}
	if Key(7).Sub(1) != Key(7).Sub(1) {
		t.Fatal("Sub is not a function of (key, tag)")
	}
}

func TestKeyRankDistinct(t *testing.T) {
	k := Key(11).Sub(3)
	seen := make(map[uint64]bool, 1<<16)
	for row := 0; row < 1<<16; row++ {
		r := k.Rank(row)
		if seen[r] {
			t.Fatalf("rank of row %d repeats", row)
		}
		seen[r] = true
	}
}

func TestKeyBernoulli(t *testing.T) {
	k := Key(5).Sub(9)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		const n = 100000
		for row := 0; row < n; row++ {
			if k.Bernoulli(row, p) {
				hits++
			}
		}
		if got := float64(hits) / n; math.Abs(got-p) > 0.01 {
			t.Fatalf("p=%v: frequency %v", p, got)
		}
	}
	for row := 0; row < 100; row++ {
		if k.Bernoulli(row, 0) || !k.Bernoulli(row, 1) || k.Bernoulli(row, -1) || !k.Bernoulli(row, 2) {
			t.Fatalf("row %d: coins at p outside (0,1) must be certain", row)
		}
	}
}

// TestKeyLowestRanksUniform: the t lowest-ranked of n rows is a uniform
// t-subset, so over many keys each row is drawn t/n of the time.
func TestKeyLowestRanksUniform(t *testing.T) {
	counts := make([]int, 10)
	const trials = 20000
	for trial := 0; trial < trials; trial++ {
		k := Key(99).Sub(uint64(trial))
		rows := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		slices.SortFunc(rows, func(a, b int) int { return cmp.Compare(k.Rank(a), k.Rank(b)) })
		for _, row := range rows[:3] {
			counts[row]++
		}
	}
	for row, c := range counts {
		if got := float64(c) / trials; math.Abs(got-0.3) > 0.02 {
			t.Fatalf("row %d drawn with frequency %v, want ~0.3", row, got)
		}
	}
}
