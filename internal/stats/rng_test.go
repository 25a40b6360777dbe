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
