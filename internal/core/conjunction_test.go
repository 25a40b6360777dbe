package core

import (
	"context"
	"errors"
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

// metered wraps each UDF in its own fresh meter.
func metered(udfs ...UDF) []*Meter {
	ms := make([]*Meter, len(udfs))
	for i, u := range udfs {
		ms[i] = NewMeter(u)
	}
	return ms
}

func TestSampleConjunctionEstimates(t *testing.T) {
	groups := conjGroups(400)
	udfs := []UDF{
		UDFFunc(func(row int) bool { return row%4 == 0 }),  // sel 0.25
		UDFFunc(func(row int) bool { return row < 300 }),   // sel 0.75
		UDFFunc(func(row int) bool { return row%10 != 0 }), // sel 0.9
	}
	samples, sels, err := SampleConjunctionParallelCtx(context.Background(), groups, []int{60, 60}, metered(udfs...), stats.NewRNG(3), 4)
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
		s, sels, err := SampleConjunctionParallelCtx(context.Background(), groups, []int{40, 40}, metered(udfs...), stats.NewRNG(17), par)
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
	// Ties keep original position: eight equal finite ranks at the even
	// indices, then eight never-rejecting ones, +Inf whatever their
	// (descending) costs, at the odd indices.
	costs, sels := make([]float64, 16), make([]float64, 16)
	for i := range costs {
		costs[i], sels[i] = 2, 0.5
		if i%2 == 1 {
			costs[i], sels[i] = float64(16-i), 1
		}
	}
	order, err = OrderPredicates(costs, sels)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if _, err := OrderPredicates([]float64{1}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// wavesOutcome is one single-batch wave run: the survivors, the rows
// retrieved, and the calls charged per predicate (indexed like meters).
type wavesOutcome struct {
	Output    []int
	Retrieved int
	Calls     []int
}

// runWaves pushes rows through a fresh ConjWaveRunner as a single batch.
func runWaves(ctx context.Context, rows, order []int, known []map[int]bool, meters []*Meter, parallelism int) (wavesOutcome, error) {
	w, err := NewConjWaveRunner(order, known, meters, parallelism)
	if err != nil {
		return wavesOutcome{}, err
	}
	out, retrieved, err := w.Run(ctx, rows)
	if err != nil {
		return wavesOutcome{}, err
	}
	calls := make([]int, len(meters))
	for j, m := range meters {
		calls[j] = m.Calls()
	}
	return wavesOutcome{Output: out, Retrieved: retrieved, Calls: calls}, nil
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
	res, err := runWaves(context.Background(), rows, []int{0, 1, 2}, nil, []*Meter{m0, m1, m2}, 4)
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
	if got := res.Calls; !reflect.DeepEqual(got, []int{200, 100, 34}) {
		t.Fatalf("meter calls %v", got)
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
	res, err := runWaves(context.Background(), rows, []int{0, 1}, known, []*Meter{m0, m1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output, []int{0, 2, 4}) {
		t.Fatalf("output %v", res.Output)
	}
	// Rows 0 and 1 were fully decided (or rejected) without touching pred 0;
	// row 0 also skipped pred 1.
	if !reflect.DeepEqual(res.Calls, []int{4, 4}) {
		t.Fatalf("meter calls %v, want [4 4]", res.Calls)
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
		res, err := runWaves(context.Background(), rows, []int{2, 0, 1}, nil, metered(udfs...), par)
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
	if _, err := runWaves(context.Background(), rows, []int{0}, nil, metered(udfs...), 1); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := runWaves(context.Background(), rows, []int{0, 0}, nil, metered(udfs...), 1); err == nil {
		t.Fatal("duplicate order accepted")
	}
	if _, err := runWaves(context.Background(), rows, []int{0, 2}, nil, metered(udfs...), 1); err == nil {
		t.Fatal("out-of-range order accepted")
	}
	if _, _, err := SampleConjunctionParallelCtx(context.Background(), conjGroups(10), []int{1}, metered(udfs...), stats.NewRNG(1), 1); err == nil {
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
	_, _, err := SampleConjunctionParallelCtx(ctx, groups, []int{20, 20}, metered(udf, udf), stats.NewRNG(2), 1)
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
	_, err = runWaves(ctx2, rows, []int{0, 1}, nil, metered(udf2, udf2), 1)
	if err != context.Canceled {
		t.Fatalf("waves cancel: %v", err)
	}
}

// foldLog admits every row, one row per segment, and logs each fold
// without synchronisation: exec.Gate promises its methods run on the
// calling goroutine.
type foldLog struct{ folds []bool }

func (g *foldLog) Segment() int { return 1 }
func (g *foldLog) Plan(n int) []bool {
	allowed := make([]bool, n)
	for i := range allowed {
		allowed[i] = true
	}
	return allowed
}
func (g *foldLog) Record(failed []bool) { g.folds = append(g.folds, failed...) }

// TestEvalWorkListsFoldSharedGateInOrder: two predicates on one UDF share
// its breaker, so both evalWorkLists call sites must fold predicate 0's
// segments before predicate 1's, each in row order. Work lists run on
// goroutines fail it under -race.
func TestEvalWorkListsFoldSharedGateInOrder(t *testing.T) {
	failEvery := func(k int) FallibleUDF {
		return fallibleFunc(func(_ context.Context, row int) (bool, error) {
			if row%k == 0 {
				return false, errors.New("down")
			}
			return true, nil
		})
	}
	folds := func(rows []int, k int) []bool {
		out := make([]bool, len(rows))
		for i, r := range rows {
			out[i] = r%k == 0
		}
		return out
	}
	lo, hi := make([]int, 16), make([]int, 16)
	single, ones := make([]Group, 16), make([]int, 16) // one-row groups: the sample keeps group order
	for i := range lo {
		lo[i], hi[i], single[i], ones[i] = i, 16+i, Group{Rows: []int{i}}, 1
	}
	ctx := context.Background()
	for _, site := range []struct {
		name string
		run  func(m0, m1 *Meter) error
		want []bool
	}{
		{"SampleConjunctionParallelCtx", func(m0, m1 *Meter) error {
			_, _, err := SampleConjunctionParallelCtx(ctx, single, ones, []*Meter{m0, m1}, stats.NewRNG(1), 4)
			return err
		}, append(folds(lo, 3), folds(lo, 4)...)},
		{"ExecuteTwoPredicatesParallelCtx", func(m0, m1 *Meter) error {
			_, err := ExecuteTwoPredicatesParallelCtx(ctx, []Group{{Rows: lo}, {Rows: hi}},
				[]TwoPredAction{TPEval1Assume2, TPAssume1Eval2}, nil, m0, m1, DefaultCost, 4)
			return err
		}, append(folds(lo, 3), folds(hi, 4)...)},
	} {
		gate := &foldLog{}
		if err := site.run(NewResilientMeter(failEvery(3), nil, gate), NewResilientMeter(failEvery(4), nil, gate)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gate.folds, site.want) {
			t.Errorf("%s folded %v, want %v", site.name, gate.folds, site.want)
		}
	}
}
