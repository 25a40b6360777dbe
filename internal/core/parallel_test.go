package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
)

// parallelTestGroups builds a few groups with a deterministic ground truth.
func parallelTestGroups(n int) ([]Group, UDF) {
	rng := stats.NewRNG(99)
	labels := make([]bool, n)
	sels := []float64{0.9, 0.5, 0.1}
	for i := range labels {
		labels[i] = rng.Bernoulli(sels[i%3])
	}
	groups := make([]Group, 3)
	for i := 0; i < n; i++ {
		groups[i%3].Rows = append(groups[i%3].Rows, i)
	}
	for i := range groups {
		groups[i].Key = string(rune('a' + i))
	}
	return groups, UDFFunc(func(row int) bool { return labels[row] })
}

func TestExecuteParallelMatchesSequential(t *testing.T) {
	groups, udf := parallelTestGroups(3000)
	s := NewStrategy(3)
	s.R[0], s.E[0] = 1, 0.9
	s.R[1], s.E[1] = 0.7, 0.4
	s.R[2], s.E[2] = 0.2, 0.1

	// Include a sampling phase so the known-outcome path is covered too.
	mkSamples := func() []SampleOutcome {
		samples := make([]SampleOutcome, 3)
		for i := range samples {
			samples[i] = SampleOutcome{Results: map[int]bool{}}
			for k, row := range groups[i].Rows {
				if k%17 == 0 {
					v := udf.Eval(row)
					samples[i].Results[row] = v
					if v {
						samples[i].Positives++
					}
				}
			}
		}
		return samples
	}

	seq, err := ExecuteParallelCtx(context.Background(), groups, s, mkSamples(), udf, DefaultCost, stats.NewRNG(7), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8, 64} {
		par, err := ExecuteParallelCtx(context.Background(), groups, s, mkSamples(), udf, DefaultCost, stats.NewRNG(7), p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("parallelism %d diverged:\nseq %+v\npar %+v", p, seq, par)
		}
	}
}

func TestSamplerTopUpParallelMatchesSequential(t *testing.T) {
	build := func(parallelism int) *Sampler {
		groups, udf := parallelTestGroups(1200)
		s := NewSampler(groups, udf, stats.NewRNG(11))
		s.SetParallelism(parallelism)
		if _, err := s.TopUpCtx(context.Background(), []int{40, 25, 60}); err != nil {
			t.Fatal(err)
		}
		// A second top-up exercises the incremental path.
		if _, err := s.TopUpCtx(context.Background(), []int{55, 55, 60}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	seq, par := build(1), build(16)
	if !reflect.DeepEqual(seq.Outcomes(), par.Outcomes()) {
		t.Fatal("parallel TopUp produced different outcomes")
	}
	if !reflect.DeepEqual(seq.Infos(), par.Infos()) {
		t.Fatal("parallel TopUp produced different infos")
	}
	if seq.TotalSampled() != par.TotalSampled() {
		t.Fatalf("sampled %d vs %d", seq.TotalSampled(), par.TotalSampled())
	}
}

func TestLabelFractionParallelMatchesSequential(t *testing.T) {
	_, udf := parallelTestGroups(900)
	rows := make([]int, 900)
	for i := range rows {
		rows[i] = i
	}
	seq, err := LabelFractionParallelCtx(context.Background(), rows, 0.05, udf, stats.NewRNG(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := LabelFractionParallelCtx(context.Background(), rows, 0.05, udf, stats.NewRNG(3), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("labeled sets differ: %d vs %d rows", len(seq), len(par))
	}
}

func TestTwoPredicatesParallelMatchesSequential(t *testing.T) {
	groups, udf1 := parallelTestGroups(1500)
	udf2 := UDFFunc(func(row int) bool { return row%2 == 0 })
	cons := Constraints{Alpha: 0.75, Beta: 0.75, Rho: 0.8}

	seq, actsSeq, samplesSeq, err := runTwoPred(context.Background(), groups, NewMeter(udf1), NewMeter(udf2), cons, defaultTargets(groups, cons), stats.NewRNG(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, actsPar, samplesPar, err := runTwoPred(context.Background(), groups, NewMeter(udf1), NewMeter(udf2), cons, defaultTargets(groups, cons), stats.NewRNG(5), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("two-pred diverged:\nseq %+v\npar %+v", seq, par)
	}
	if !reflect.DeepEqual(actsSeq, actsPar) {
		t.Fatalf("actions diverged: %v vs %v", actsSeq, actsPar)
	}
	if !reflect.DeepEqual(samplesSeq, samplesPar) {
		t.Fatal("joint samples diverged across parallelism")
	}
}

func TestMeterSingleFlightUnderConcurrency(t *testing.T) {
	var bodyCalls atomic.Int64
	slow := UDFFunc(func(row int) bool {
		bodyCalls.Add(1)
		return row%2 == 0
	})
	m := NewMeter(slow)
	const goroutines = 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for row := 0; row < 50; row++ {
				if got := m.Eval(row); got != (row%2 == 0) {
					t.Errorf("row %d verdict %v", row, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c := bodyCalls.Load(); c != 50 {
		t.Fatalf("UDF body ran %d times, want 50 (once per row)", c)
	}
	if m.Calls() != 50 {
		t.Fatalf("meter charged %d calls, want 50", m.Calls())
	}
}

func TestCachedMeterSkipsCharging(t *testing.T) {
	cache := NewSharedEvalCache()
	var bodyCalls atomic.Int64
	udf := UDFFunc(func(row int) bool {
		bodyCalls.Add(1)
		return row > 10
	})

	m1 := NewCachedMeter(udf, cache)
	for row := 0; row < 20; row++ {
		m1.Eval(row)
	}
	if m1.Calls() != 20 || bodyCalls.Load() != 20 {
		t.Fatalf("first meter: %d calls, %d body runs", m1.Calls(), bodyCalls.Load())
	}
	if cache.Len() != 20 {
		t.Fatalf("cache holds %d rows, want 20", cache.Len())
	}

	// A second query's meter over the same cache pays nothing.
	m2 := NewCachedMeter(udf, cache)
	for row := 0; row < 20; row++ {
		if got := m2.Eval(row); got != (row > 10) {
			t.Fatalf("cached verdict wrong for row %d", row)
		}
	}
	if m2.Calls() != 0 || bodyCalls.Load() != 20 {
		t.Fatalf("second meter: %d calls, %d body runs, want 0 and 20", m2.Calls(), bodyCalls.Load())
	}
	// New rows still get evaluated and charged.
	m2.Eval(25)
	if m2.Calls() != 1 || bodyCalls.Load() != 21 {
		t.Fatalf("fresh row: %d calls, %d body runs", m2.Calls(), bodyCalls.Load())
	}
}

func TestMeterPanicDoesNotPoisonMemo(t *testing.T) {
	first := true
	udf := UDFFunc(func(row int) bool {
		if row == 3 && first {
			first = false
			panic("transient")
		}
		return row%2 == 1
	})
	m := NewMeter(udf)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		m.Eval(3)
	}()
	if _, ok := m.Known(3); ok {
		t.Fatal("failed evaluation left a memo entry")
	}
	// A retry must re-invoke the UDF and get the genuine verdict, not the
	// zero-value false.
	if !m.Eval(3) {
		t.Fatal("retry inherited the failed evaluation's zero verdict")
	}
}

func TestMeterKnown(t *testing.T) {
	m := NewMeter(UDFFunc(func(row int) bool { return row == 1 }))
	if _, ok := m.Known(1); ok {
		t.Fatal("unevaluated row reported known")
	}
	m.Eval(1)
	v, ok := m.Known(1)
	if !ok || !v {
		t.Fatalf("known(1) = %v, %v", v, ok)
	}
	m.Eval(2)
	if v, ok := m.Known(2); !ok || v {
		t.Fatalf("known(2) = %v, %v, want a known negative", v, ok)
	}

	// A failed-final row never produced a value: it is not a known negative.
	r := NewResilientMeter(fallibleFunc(func(_ context.Context, row int) (bool, error) {
		if row == 7 {
			return false, errors.New("broken row")
		}
		return false, nil
	}), nil, nil, nil)
	r.Eval(7)
	r.Eval(8)
	if v, ok := r.Known(7); v || ok {
		t.Fatalf("failed-final row: known(7) = %v, %v, want (false, false)", v, ok)
	}
	if v, ok := r.Known(8); v || !ok {
		t.Fatalf("evaluated-false row: known(8) = %v, %v, want (false, true)", v, ok)
	}
}
