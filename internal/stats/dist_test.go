package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBetaPosteriorMoments(t *testing.T) {
	// Section 4.1: s = (F⁺+1)/(F+2), v = s(1−s)/(F+3).
	for _, tc := range []struct{ pos, neg int }{{0, 0}, {9, 1}, {50, 50}, {1, 99}} {
		d := NewBetaPosterior(tc.pos, tc.neg)
		f := float64(tc.pos + tc.neg)
		wantMean := (float64(tc.pos) + 1) / (f + 2)
		wantVar := wantMean * (1 - wantMean) / (f + 3)
		if math.Abs(d.Mean()-wantMean) > 1e-12 {
			t.Fatalf("pos=%d neg=%d mean %v want %v", tc.pos, tc.neg, d.Mean(), wantMean)
		}
		if math.Abs(d.Variance()-wantVar) > 1e-12 {
			t.Fatalf("pos=%d neg=%d var %v want %v", tc.pos, tc.neg, d.Variance(), wantVar)
		}
	}
}

func TestBetaPosteriorPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative counts")
		}
	}()
	NewBetaPosterior(-1, 0)
}

func TestBetaPosteriorProperty(t *testing.T) {
	f := func(posRaw, negRaw uint16) bool {
		pos, neg := int(posRaw%10000), int(negRaw%10000)
		d := NewBetaPosterior(pos, neg)
		m, v := d.Mean(), d.Variance()
		// Mean in (0,1); variance positive and no larger than uniform's 1/12
		// once any evidence is in... variance of Beta is at most 1/12 at (1,1)?
		// Beta(1,1) variance = 1/12; evidence only shrinks it.
		return m > 0 && m < 1 && v > 0 && v <= 1.0/12+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBetaPDFIntegratesToOne(t *testing.T) {
	d := BetaDist{Alpha: 3, Beta: 5}
	const steps = 20000
	total := 0.0
	for i := 0; i < steps; i++ {
		x := (float64(i) + 0.5) / steps
		total += d.PDF(x) / steps
	}
	if math.Abs(total-1) > 1e-3 {
		t.Fatalf("Beta(3,5) PDF integral = %v", total)
	}
}

func TestBetaSampleMean(t *testing.T) {
	r := NewRNG(101)
	d := BetaDist{Alpha: 8, Beta: 2}
	var w Welford
	for i := 0; i < 20000; i++ {
		w.Add(d.Sample(r))
	}
	if math.Abs(w.Mean()-0.8) > 0.01 {
		t.Fatalf("Beta(8,2) sample mean %v want 0.8", w.Mean())
	}
}

func TestBetaMode(t *testing.T) {
	if m := (BetaDist{Alpha: 3, Beta: 3}).Mode(); math.Abs(m-0.5) > 1e-12 {
		t.Fatalf("mode %v want 0.5", m)
	}
	if m := (BetaDist{Alpha: 0.5, Beta: 3}).Mode(); m != 0 {
		t.Fatalf("mode %v want 0", m)
	}
	if m := (BetaDist{Alpha: 3, Beta: 0.5}).Mode(); m != 1 {
		t.Fatalf("mode %v want 1", m)
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	d := BinomialDist{N: 40, P: 0.3}
	total := 0.0
	for k := 0; k <= 40; k++ {
		total += d.PMF(k)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("Binomial PMF sums to %v", total)
	}
}

func TestBinomialDegenerate(t *testing.T) {
	d0 := BinomialDist{N: 10, P: 0}
	if d0.PMF(0) != 1 || d0.PMF(1) != 0 {
		t.Fatal("Binomial(n,0) should be a point mass at 0")
	}
	d1 := BinomialDist{N: 10, P: 1}
	if d1.PMF(10) != 1 || d1.PMF(9) != 0 {
		t.Fatal("Binomial(n,1) should be a point mass at n")
	}
}

// TestContractHoldsCriticalCounts pins the rule's critical counts at the
// full-power grid's size: 810 statements at ρ = 0.9 refute the contract at
// 701 met or fewer, which refutes a true rate of 0.85 nine times in ten.
func TestContractHoldsCriticalCounts(t *testing.T) {
	const n, rho, sig = 810, 0.9, ContractSignificance
	if ContractHolds(701, n, rho, sig) || !ContractHolds(702, n, rho, sig) {
		t.Fatal("critical count at n=810, ρ=0.9 is not 701")
	}
	if power := (BinomialDist{N: n, P: 0.85}).CDF(701); power < 0.90 {
		t.Fatalf("power against 0.85 is %v, want ≥ 0.90", power)
	}
	// A clean sweep always holds; so does an empty one.
	if !ContractHolds(n, n, 0.99, sig) || !ContractHolds(0, 0, 0.9, sig) {
		t.Fatal("full or empty sweep refuted")
	}
}

func TestBinomialCDFMonotone(t *testing.T) {
	d := BinomialDist{N: 25, P: 0.45}
	prev := -1.0
	for k := -1; k <= 26; k++ {
		c := d.CDF(k)
		if c < prev-1e-12 {
			t.Fatalf("CDF decreased at k=%d", k)
		}
		prev = c
	}
	if d.CDF(25) != 1 {
		t.Fatal("CDF at N should be 1")
	}
}

func TestNormalCDFQuantileRoundTrip(t *testing.T) {
	d := NormalDist{Mu: 2, Sigma: 3}
	for _, p := range []float64{0.01, 0.2, 0.5, 0.8, 0.99} {
		x := d.Quantile(p)
		if math.Abs(d.CDF(x)-p) > 1e-6 {
			t.Fatalf("CDF(Quantile(%v)) = %v", p, d.CDF(x))
		}
	}
}

func TestNormalPDFSymmetry(t *testing.T) {
	d := NormalDist{Mu: 0, Sigma: 1}
	f := func(x float64) bool {
		x = math.Mod(x, 50)
		return math.Abs(d.PDF(x)-d.PDF(-x)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalSampleMoments(t *testing.T) {
	r := NewRNG(55)
	d := NormalDist{Mu: -4, Sigma: 2}
	var w Welford
	for i := 0; i < 40000; i++ {
		w.Add(d.Sample(r))
	}
	if math.Abs(w.Mean()+4) > 0.05 {
		t.Fatalf("sample mean %v", w.Mean())
	}
	if sd := math.Sqrt(w.Variance()); math.Abs(sd-2) > 0.05 {
		t.Fatalf("sample sd %v", sd)
	}
}
