package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// hoeffdingUpperTail is the reference the margin is derived from: the
// Hoeffding bound on P(S − E[S] ≥ t) for a sum of n independent variables
// each with the given range width.
func hoeffdingUpperTail(n float64, rangeWidth, t float64) float64 {
	if t <= 0 {
		return 1
	}
	return math.Exp(-2 * t * t / (n * rangeWidth * rangeWidth))
}

func TestHoeffdingMarginMatchesTail(t *testing.T) {
	// The margin is defined so that the Hoeffding tail at the margin equals
	// exactly 1−ρ.
	for _, rho := range []float64{0.5, 0.8, 0.9, 0.99} {
		n := 50000.0
		m := HoeffdingMargin(n, 1, rho)
		tail := hoeffdingUpperTail(n, 1, m)
		if math.Abs(tail-(1-rho)) > 1e-9 {
			t.Fatalf("rho=%v: tail at margin = %v, want %v", rho, tail, 1-rho)
		}
	}
}

func TestHoeffdingMarginMonotoneInRho(t *testing.T) {
	prev := 0.0
	for _, rho := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		m := HoeffdingMargin(1000, 1, rho)
		if m <= prev {
			t.Fatalf("margin not increasing at rho=%v", rho)
		}
		prev = m
	}
}

func TestHoeffdingMarginScalesSqrtN(t *testing.T) {
	m1 := HoeffdingMargin(100, 1, 0.8)
	m4 := HoeffdingMargin(400, 1, 0.8)
	if math.Abs(m4/m1-2) > 1e-9 {
		t.Fatalf("margin should scale as sqrt(n): %v vs %v", m1, m4)
	}
}

func TestHoeffdingMarginEdges(t *testing.T) {
	if HoeffdingMargin(100, 1, 0) != 0 {
		t.Fatal("rho=0 should give zero margin")
	}
	if !math.IsInf(HoeffdingMargin(100, 1, 1), 1) {
		t.Fatal("rho=1 should give infinite margin")
	}
	if HoeffdingMargin(0, 1, 0.8) != 0 {
		t.Fatal("n=0 should give zero margin")
	}
}

func TestRecallMarginUsesRange(t *testing.T) {
	// Recall indicators live in [0, 1−β]; margin shrinks as β → 1.
	m0 := RecallMargin(1000, 0, 0.8)
	mHalf := RecallMargin(1000, 0.5, 0.8)
	m1 := RecallMargin(1000, 1, 0.8)
	if math.Abs(mHalf-m0/2) > 1e-9 {
		t.Fatalf("beta=0.5 margin %v want half of %v", mHalf, m0)
	}
	if m1 != 0 {
		t.Fatalf("beta=1 margin should be 0, got %v", m1)
	}
	if pm := PrecisionMargin(1000, 0.8); math.Abs(pm-m0) > 1e-9 {
		t.Fatalf("precision margin %v should equal full-range recall margin %v", pm, m0)
	}
}

func TestCantelliMultiplier(t *testing.T) {
	if e := CantelliMultiplier(0.9); math.Abs(e-3) > 1e-12 {
		t.Fatalf("e_0.9 = %v, want 3", e)
	}
	if e := CantelliMultiplier(0.5); math.Abs(e-1) > 1e-12 {
		t.Fatalf("e_0.5 = %v, want 1", e)
	}
	if e := CantelliMultiplier(0); e != 0 {
		t.Fatalf("e_0 = %v, want 0", e)
	}
	if e := CantelliMultiplier(-3); e != 0 {
		t.Fatalf("negative rho should clamp to 0, got %v", e)
	}
	if !math.IsInf(CantelliMultiplier(1), 1) {
		t.Fatal("e_1 should be +Inf")
	}
	// The one-sided tail at e_ρ is exactly the failure budget 1−ρ.
	for _, rho := range []float64{0.01, 0.5, 0.8, 0.9, 0.95, 0.99} {
		k := CantelliMultiplier(rho)
		if tail := 1 / (1 + k*k); math.Abs(tail-(1-rho)) > 1e-12 {
			t.Fatalf("ρ=%v: 1/(1+k²) = %v, want %v", rho, tail, 1-rho)
		}
	}
}

func TestCantelliMultiplierMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 1))
		b = math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		return CantelliMultiplier(a) <= CantelliMultiplier(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHoeffdingEmpirical(t *testing.T) {
	// Empirically: the mean of n Bernoulli(p) draws deviates below its
	// expectation by more than the margin in at most (1−ρ) of trials.
	r := NewRNG(71)
	const n, trials = 2000, 800
	rho := 0.9
	margin := HoeffdingMargin(float64(n), 1, rho)
	p := 0.4
	violations := 0
	for trial := 0; trial < trials; trial++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			if r.Bernoulli(p) {
				sum++
			}
		}
		if sum-float64(n)*p < -margin {
			violations++
		}
	}
	if frac := float64(violations) / trials; frac > 1-rho {
		t.Fatalf("Hoeffding violated empirically: %v > %v", frac, 1-rho)
	}
}
