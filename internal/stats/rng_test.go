package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestNewRNGDifferentSeeds(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 64", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		// One collision is possible but wildly unlikely; check a few more.
		if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
			t.Fatal("split children produce identical streams")
		}
	}
}

func TestSplitDoesNotPerturbDeterminism(t *testing.T) {
	a := NewRNG(9)
	_ = a.Split()
	b := NewRNG(9)
	_ = b.Split()
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("parent streams diverged after Split")
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 50; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", got)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := NewRNG(5)
	for _, tc := range []struct{ n, k int }{{10, 3}, {10, 10}, {10, 15}, {1, 1}, {5, 0}} {
		idx := r.SampleWithoutReplacement(tc.n, tc.k)
		want := tc.k
		if want > tc.n {
			want = tc.n
		}
		if want < 0 {
			want = 0
		}
		if len(idx) != want {
			t.Fatalf("n=%d k=%d: got %d indices", tc.n, tc.k, len(idx))
		}
		seen := map[int]bool{}
		for _, i := range idx {
			if i < 0 || i >= tc.n {
				t.Fatalf("index %d out of range [0,%d)", i, tc.n)
			}
			if seen[i] {
				t.Fatalf("duplicate index %d", i)
			}
			seen[i] = true
		}
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Each of 10 items should be chosen ~k/n of the time.
	r := NewRNG(17)
	counts := make([]int, 10)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, idx := range r.SampleWithoutReplacement(10, 3) {
			counts[idx]++
		}
	}
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-0.3) > 0.02 {
			t.Fatalf("item %d selected with frequency %v, want ~0.3", i, got)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	r := NewRNG(23)
	for _, tc := range []struct {
		n int
		p float64
	}{{20, 0.5}, {500, 0.1}, {2000, 0.72}} {
		var w Welford
		for i := 0; i < 4000; i++ {
			w.Add(float64(r.Binomial(tc.n, tc.p)))
		}
		wantMean := float64(tc.n) * tc.p
		wantSD := math.Sqrt(float64(tc.n) * tc.p * (1 - tc.p))
		if math.Abs(w.Mean()-wantMean) > 4*wantSD/math.Sqrt(4000)+0.75 {
			t.Fatalf("n=%d p=%v: mean %v want %v", tc.n, tc.p, w.Mean(), wantMean)
		}
		if sd := math.Sqrt(w.Variance()); math.Abs(sd-wantSD) > 0.15*wantSD+0.5 {
			t.Fatalf("n=%d p=%v: sd %v want %v", tc.n, tc.p, sd, wantSD)
		}
	}
}

func TestBinomialBounds(t *testing.T) {
	r := NewRNG(29)
	f := func(nRaw uint16, p float64) bool {
		n := int(nRaw % 3000)
		p = math.Abs(math.Mod(p, 1))
		k := r.Binomial(n, p)
		return k >= 0 && k <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGammaMean(t *testing.T) {
	r := NewRNG(31)
	for _, shape := range []float64{0.5, 1, 2.5, 9} {
		var w Welford
		for i := 0; i < 20000; i++ {
			w.Add(r.Gamma(shape))
		}
		if math.Abs(w.Mean()-shape) > 0.08*shape+0.05 {
			t.Fatalf("Gamma(%v) mean %v", shape, w.Mean())
		}
	}
}

func TestBetaDrawsInUnitInterval(t *testing.T) {
	r := NewRNG(37)
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 20)) + 0.1
		b = math.Abs(math.Mod(b, 20)) + 0.1
		x := r.Beta(a, b)
		return x >= 0 && x <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(41)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation element %d", v)
		}
		seen[v] = true
	}
}
