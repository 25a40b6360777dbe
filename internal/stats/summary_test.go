package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceBasics(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); math.Abs(m-5) > 1e-12 {
		t.Fatalf("mean %v", m)
	}
	if v := Variance(xs); math.Abs(v-4) > 1e-12 {
		t.Fatalf("variance %v", v)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty slice should give zeros")
	}
	if Variance([]float64{3}) != 0 || SampleStdDev([]float64{3}) != 0 {
		t.Fatal("singleton should give zero spread")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestSampleStdDev(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	// sample variance = 2.5
	if sd := SampleStdDev(xs); math.Abs(sd-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("sample sd %v", sd)
	}
}

func TestWeightedMean(t *testing.T) {
	xs := []float64{1, 10}
	ws := []float64{9, 1}
	if m := WeightedMean(xs, ws); math.Abs(m-1.9) > 1e-12 {
		t.Fatalf("weighted mean %v", m)
	}
	if m := WeightedMean([]float64{1, 2}, []float64{0, 0}); m != 0 {
		t.Fatalf("zero-weight mean %v", m)
	}
}

func TestPearsonCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ysPos := []float64{2, 4, 6, 8, 10}
	ysNeg := []float64{5, 4, 3, 2, 1}
	if c := PearsonCorrelation(xs, ysPos); math.Abs(c-1) > 1e-12 {
		t.Fatalf("corr %v want 1", c)
	}
	if c := PearsonCorrelation(xs, ysNeg); math.Abs(c+1) > 1e-12 {
		t.Fatalf("corr %v want -1", c)
	}
	if c := PearsonCorrelation(xs, []float64{7, 7, 7, 7, 7}); c != 0 {
		t.Fatalf("constant series corr %v want 0", c)
	}
}

func TestPearsonBounded(t *testing.T) {
	f := func(xs, ys [8]float64) bool {
		bx, by := make([]float64, 8), make([]float64, 8)
		for i := range xs {
			bx[i] = math.Mod(xs[i], 1e6)
			by[i] = math.Mod(ys[i], 1e6)
		}
		c := PearsonCorrelation(bx, by)
		return c >= -1-1e-9 && c <= 1+1e-9 && !math.IsNaN(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if q := Quantile(xs, 0); q != 10 {
		t.Fatalf("q0 %v", q)
	}
	if q := Quantile(xs, 1); q != 40 {
		t.Fatalf("q1 %v", q)
	}
	if q := Quantile(xs, 0.5); math.Abs(q-25) > 1e-12 {
		t.Fatalf("median %v", q)
	}
	// must not mutate input
	if xs[0] != 10 || xs[3] != 40 {
		t.Fatal("Quantile mutated its input")
	}
	shuffled := []float64{40, 10, 30, 20}
	if q := Quantile(shuffled, 0.5); math.Abs(q-25) > 1e-12 {
		t.Fatalf("median of unsorted %v", q)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	r := NewRNG(77)
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 1
		w.Add(xs[i])
	}
	if math.Abs(w.Mean()-Mean(xs)) > 1e-9 {
		t.Fatalf("welford mean %v batch %v", w.Mean(), Mean(xs))
	}
	if math.Abs(w.Variance()-Variance(xs)) > 1e-9 {
		t.Fatalf("welford var %v batch %v", w.Variance(), Variance(xs))
	}
	if w.N() != 1000 {
		t.Fatalf("welford n %d", w.N())
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
	f := func(x float64) bool {
		c := Clamp01(x)
		return c >= 0 && c <= 1 && (x < 0 || x > 1 || c == x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
