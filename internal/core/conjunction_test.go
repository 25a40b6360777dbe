package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// conjGroups builds two groups over rows 0..n-1 (even/odd split).
func conjGroups(n int) []Group {
	var even, odd []int
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			even = append(even, i)
		} else {
			odd = append(odd, i)
		}
	}
	return []Group{{Key: "even", Rows: even}, {Key: "odd", Rows: odd}}
}

func TestSampleConjunctionEstimates(t *testing.T) {
	groups := conjGroups(400)
	udfs := []UDF{
		UDFFunc(func(row int) bool { return row%4 == 0 }),  // sel 0.25
		UDFFunc(func(row int) bool { return row < 300 }),   // sel 0.75
		UDFFunc(func(row int) bool { return row%10 != 0 }), // sel 0.9
	}
	samples, sels, err := SampleConjunctionParallelCtx(context.Background(), groups, []int{60, 60}, udfs, stats.NewRNG(3), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || len(sels) != 3 {
		t.Fatalf("got %d samples, %d sels", len(samples), len(sels))
	}
	for i, s := range samples {
		if len(s.Results) != 60 {
			t.Fatalf("group %d sampled %d rows, want 60", i, len(s.Results))
		}
		for row, outs := range s.Results {
			if len(outs) != 3 {
				t.Fatalf("row %d has %d outcomes", row, len(outs))
			}
			for j, u := range udfs {
				if outs[j] != u.Eval(row) {
					t.Fatalf("row %d pred %d recorded %v", row, j, outs[j])
				}
			}
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
	run := func(par int) ([]ConjSample, []float64) {
		s, sels, err := SampleConjunctionParallelCtx(context.Background(), groups, []int{40, 40}, udfs, stats.NewRNG(17), par)
		if err != nil {
			t.Fatal(err)
		}
		return s, sels
	}
	s1, sel1 := run(1)
	s8, sel8 := run(8)
	if !reflect.DeepEqual(s1, s8) || !reflect.DeepEqual(sel1, sel8) {
		t.Fatal("sampling diverged across parallelism levels")
	}
}

func TestOrderPredicates(t *testing.T) {
	// rank = cost/(1-sel): 3/0.75=4, 1/0.1=10, 3/0.9≈3.33 → order 2,0,1.
	order, err := OrderPredicates([]float64{3, 1, 3}, []float64{0.25, 0.9, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{2, 0, 1}) {
		t.Fatalf("order %v", order)
	}
	// A never-rejecting predicate goes last regardless of cost.
	order, err = OrderPredicates([]float64{0.001, 5}, []float64{1.0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{1, 0}) {
		t.Fatalf("order %v", order)
	}
	// Ties keep original position.
	order, err = OrderPredicates([]float64{2, 2}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1}) {
		t.Fatalf("order %v", order)
	}
	if _, err := OrderPredicates([]float64{1}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// wavesOutcome is one single-batch wave run: the survivors plus the
// runner's accounting.
type wavesOutcome struct {
	ConjWavesResult
	Output []int
}

// runWaves pushes rows through a fresh ConjWaveRunner as a single batch.
func runWaves(ctx context.Context, rows, order []int, known []map[int]bool, udfs []UDF, parallelism int) (wavesOutcome, error) {
	w, err := NewConjWaveRunner(order, known, udfs, parallelism)
	if err != nil {
		return wavesOutcome{}, err
	}
	out, err := w.Run(ctx, rows)
	if err != nil {
		return wavesOutcome{}, err
	}
	return wavesOutcome{ConjWavesResult: w.Result(), Output: out}, nil
}

func TestExecuteConjunctionWavesShortCircuit(t *testing.T) {
	n := 200
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	m0 := NewMeter(UDFFunc(func(row int) bool { return row%2 == 0 }))
	m1 := NewMeter(UDFFunc(func(row int) bool { return row%3 == 0 }))
	m2 := NewMeter(UDFFunc(func(row int) bool { return row%5 == 0 }))
	res, err := runWaves(context.Background(), rows, []int{0, 1, 2}, nil, []UDF{m0, m1, m2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i := 0; i < n; i++ {
		if i%2 == 0 && i%3 == 0 && i%5 == 0 {
			want = append(want, i)
		}
	}
	if !reflect.DeepEqual(res.Output, want) {
		t.Fatalf("output %v, want %v", res.Output, want)
	}
	// Wave sizes: 200, then the 100 even rows, then the 34 multiples of 6.
	if got := res.Evaluated; !reflect.DeepEqual(got, []int{200, 100, 34}) {
		t.Fatalf("evaluated %v", got)
	}
	if m0.Calls() != 200 || m1.Calls() != 100 || m2.Calls() != 34 {
		t.Fatalf("meter calls %d/%d/%d", m0.Calls(), m1.Calls(), m2.Calls())
	}
	if res.Retrieved != 200 {
		t.Fatalf("retrieved %d, want 200", res.Retrieved)
	}
}

func TestExecuteConjunctionWavesKnownRowsFree(t *testing.T) {
	rows := []int{0, 1, 2, 3, 4, 5}
	m0 := NewMeter(UDFFunc(func(row int) bool { return row != 1 }))
	m1 := NewMeter(UDFFunc(func(row int) bool { return row%2 == 0 }))
	known := []map[int]bool{
		{0: true, 1: false},
		{0: true},
	}
	res, err := runWaves(context.Background(), rows, []int{0, 1}, known, []UDF{m0, m1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output, []int{0, 2, 4}) {
		t.Fatalf("output %v", res.Output)
	}
	// Rows 0 and 1 were fully decided (or rejected) without touching pred 0;
	// row 0 also skipped pred 1.
	if m0.Calls() != 4 {
		t.Fatalf("pred0 calls %d, want 4", m0.Calls())
	}
	if m1.Calls() != 4 {
		t.Fatalf("pred1 calls %d, want 4", m1.Calls())
	}
	// Row 0 was never fetched during waves; rows 2..5 were.
	if res.Retrieved != 4 {
		t.Fatalf("retrieved %d, want 4", res.Retrieved)
	}
}

func TestExecuteConjunctionWavesOrderIndependentOfParallelism(t *testing.T) {
	n := 500
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	udfs := []UDF{
		UDFFunc(func(row int) bool { return row%2 == 1 }),
		UDFFunc(func(row int) bool { return row%7 != 0 }),
		UDFFunc(func(row int) bool { return row > 100 }),
	}
	run := func(par int) wavesOutcome {
		res, err := runWaves(context.Background(), rows, []int{2, 0, 1}, nil, udfs, par)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(1), run(8); !reflect.DeepEqual(a, b) {
		t.Fatalf("waves diverged across parallelism: %+v vs %+v", a, b)
	}
}

func TestConjunctionWavesValidation(t *testing.T) {
	rows := []int{0, 1}
	udfs := []UDF{UDFFunc(func(int) bool { return true }), UDFFunc(func(int) bool { return true })}
	if _, err := runWaves(context.Background(), rows, []int{0}, nil, udfs, 1); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := runWaves(context.Background(), rows, []int{0, 0}, nil, udfs, 1); err == nil {
		t.Fatal("duplicate order accepted")
	}
	if _, err := runWaves(context.Background(), rows, []int{0, 2}, nil, udfs, 1); err == nil {
		t.Fatal("out-of-range order accepted")
	}
	if _, _, err := SampleConjunctionParallelCtx(context.Background(), conjGroups(10), []int{1}, udfs, stats.NewRNG(1), 1); err == nil {
		t.Fatal("target/group mismatch accepted")
	}
	if _, _, err := SampleConjunctionParallelCtx(context.Background(), conjGroups(10), []int{1, 1}, nil, stats.NewRNG(1), 1); err == nil {
		t.Fatal("no predicates accepted")
	}
}

func TestConjunctionCancellation(t *testing.T) {
	groups := conjGroups(100)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	udf := UDFFunc(func(row int) bool {
		calls++
		if calls == 5 {
			cancel()
		}
		return true
	})
	_, _, err := SampleConjunctionParallelCtx(ctx, groups, []int{20, 20}, []UDF{udf, udf}, stats.NewRNG(2), 1)
	if err != context.Canceled {
		t.Fatalf("sample cancel: %v", err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	calls = 0
	udf2 := UDFFunc(func(row int) bool {
		calls++
		if calls == 5 {
			cancel2()
		}
		return true
	})
	rows := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	_, err = runWaves(ctx2, rows, []int{0, 1}, nil, []UDF{udf2, udf2}, 1)
	if err != context.Canceled {
		t.Fatalf("waves cancel: %v", err)
	}
}
