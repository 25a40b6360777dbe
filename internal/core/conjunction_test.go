package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/exec"
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

// wavesOutcome is one single-batch wave run: the survivors, the rows each
// wave evaluated, and the calls charged per meter (indexed like meters).
type wavesOutcome struct {
	Output    []int
	Evaluated []int
	Calls     []int
}

// runWaves pushes rows through fresh Waves over meters as a single batch.
func runWaves(ctx context.Context, rows []int, need []Span, meters []*Meter, parallelism int) (wavesOutcome, error) {
	w := Waves{Meters: meters, Pool: exec.NewPool(parallelism)}
	out, err := w.Run(ctx, rows, need)
	if err != nil {
		return wavesOutcome{}, err
	}
	calls := make([]int, len(meters))
	for j, m := range meters {
		calls[j] = m.Calls()
	}
	return wavesOutcome{Output: out, Evaluated: w.Evaluated, Calls: calls}, nil
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
	res, err := runWaves(context.Background(), rows, nil, []*Meter{m0, m1, m2}, 4)
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
	if !reflect.DeepEqual(res.Evaluated, res.Calls) {
		t.Fatalf("evaluated %v, want the calls %v", res.Evaluated, res.Calls)
	}
}

func TestExecuteConjunctionWavesKnownRowsFree(t *testing.T) {
	// Row 0 was sampled and passed both predicates: it needs nothing more.
	// Row 1 was sampled and failed, so the caller leaves it out.
	rows := []int{0, 2, 3, 4, 5}
	every := Span{0, 2}
	need := []Span{{}, every, every, every, every}
	m0 := NewMeter(UDFFunc(func(row int) bool { return row != 1 }))
	m1 := NewMeter(UDFFunc(func(row int) bool { return row%2 == 0 }))
	res, err := runWaves(context.Background(), rows, need, []*Meter{m0, m1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output, []int{0, 2, 4}) {
		t.Fatalf("output %v", res.Output)
	}
	// Row 0 skipped both predicates.
	if !reflect.DeepEqual(res.Calls, []int{4, 4}) {
		t.Fatalf("meter calls %v, want [4 4]", res.Calls)
	}
}

func TestExecuteConjunctionWavesOrderIndependentOfParallelism(t *testing.T) {
	n := 500
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	udfs := []UDF{
		UDFFunc(func(row int) bool { return row > 100 }),
		UDFFunc(func(row int) bool { return row%2 == 1 }),
		UDFFunc(func(row int) bool { return row%7 != 0 }),
	}
	run := func(par int) wavesOutcome {
		res, err := runWaves(context.Background(), rows, nil, metered(udfs...), par)
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
	udfs := []UDF{UDFFunc(func(int) bool { return true }), UDFFunc(func(int) bool { return true })}
	if _, err := NewJointSampler(conjGroups(10), metered(udfs...), stats.Key(1)).TopUpCtx(context.Background(), []int{1}); err == nil {
		t.Fatal("target/group mismatch accepted")
	}
	if _, err := NewJointSampler(conjGroups(10), nil, stats.Key(1)).TopUpCtx(context.Background(), []int{1, 1}); err == nil {
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
	_, err := NewJointSampler(groups, metered(udf, udf), stats.Key(2)).TopUpCtx(ctx, []int{20, 20})
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
	_, err = runWaves(ctx2, rows, nil, metered(udf2, udf2), 1)
	if err != context.Canceled {
		t.Fatalf("waves cancel: %v", err)
	}
	// A cancelled context returns no survivors even when no wave has work.
	if out, err := (&Waves{Meters: metered(udf2)}).Run(ctx2, rows, make([]Span, len(rows))); err != context.Canceled || out != nil {
		t.Fatalf("cancelled run without work: %v, %v", out, err)
	}
}

// foldLog admits every row, seg rows per segment (one when seg is 0), and
// logs each fold without synchronisation: exec.Gate promises its methods
// run on the calling goroutine.
type foldLog struct {
	seg   int
	folds []bool
}

func (g *foldLog) Segment() int { return max(g.seg, 1) }
func (g *foldLog) Plan(n int) []bool {
	allowed := make([]bool, n)
	for i := range allowed {
		allowed[i] = true
	}
	return allowed
}
func (g *foldLog) Record(failed []bool) { g.folds = append(g.folds, failed...) }

// TestEvalWorkListsFoldSharedGateInOrder: two predicates on one UDF share
// its breaker, so the sampler and the coin executor running the §5 actions
// must fold predicate 0's segments before predicate 1's, each in row order
// — the executor's f2 wave merges the evaluate-f2 rows with the
// evaluate-both rows f1 kept. Work lists run on goroutines fail it under
// -race.
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
	kept := func(rows []int, k int) []int { // the rows failEvery(k) passes
		var out []int
		for _, r := range rows {
			if r%k != 0 {
				out = append(out, r)
			}
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
		{"Sampler.TopUpCtx", func(m0, m1 *Meter) error {
			s := NewJointSampler(single, []*Meter{m0, m1}, stats.Key(1))
			s.SetParallelism(4)
			_, err := s.TopUpCtx(ctx, ones)
			return err
		}, append(folds(lo, 3), folds(lo, 4)...)},
		{"eval-1 + eval-2", func(m0, m1 *Meter) error {
			_, err := executeActions(ctx, []Group{{Rows: lo}, {Rows: hi}},
				[]TwoPredAction{TPEval1Assume2, TPAssume1Eval2}, nil, m0, m1, 4)
			return err
		}, append(folds(lo, 3), folds(hi, 4)...)},
		{"eval-both + eval-2", func(m0, m1 *Meter) error {
			_, err := executeActions(ctx, []Group{{Rows: lo}, {Rows: hi}},
				[]TwoPredAction{TPEvalBoth, TPAssume1Eval2}, nil, m0, m1, 4)
			return err
		}, append(append(folds(lo, 3), folds(kept(lo, 3), 4)...), folds(hi, 4)...)},
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

// TestWavesMatchRowAtATime holds Waves to the rule it implements, applied
// one row at a time: a row survives iff every predicate of its span, taken
// in order, passes without failing, and it is evaluated under a predicate
// only when every earlier predicate of its span passed. Random spans over
// 1–4 resilient meters with failing rows, split into batches that share
// one reused Waves, must give the reference's survivors, evaluated counts,
// charged calls and — through one logging gate shared by every meter — its
// fold sequence, at parallelism 1 and 8.
func TestWavesMatchRowAtATime(t *testing.T) {
	// Predicate j passes a row unless pass rejects it, and fails it for good
	// every fail-th row; both depend on the row only.
	pass := func(j, row int) bool { return (row*(j+3)+j)%5 != 0 }
	fails := func(j, row int) bool { return (row+j)%(7+j) == 0 }
	ctx := context.Background()
	for _, par := range []int{1, 8} {
		rng := stats.NewRNG(33)
		w := Waves{Pool: exec.NewPool(par)}
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.IntN(4)
			gate := &foldLog{seg: 1 + rng.IntN(4)}
			meters := make([]*Meter, n)
			for j := range meters {
				meters[j] = NewResilientMeter(fallibleFunc(func(_ context.Context, row int) (bool, error) {
					if fails(j, row) {
						return false, errors.New("down")
					}
					return pass(j, row), nil
				}), nil, gate)
			}
			w.Meters, w.Evaluated = meters, nil

			// Distinct rows in random order, random spans (nil: every
			// predicate), split into batches; an empty set is one empty batch.
			rows := rng.Perm(300)[:rng.IntN(120)]
			var need []Span
			if rng.IntN(4) > 0 {
				need = make([]Span, len(rows))
				for i := range need {
					from := rng.IntN(n + 1)
					need[i] = Span{int32(from), int32(from + rng.IntN(n+1-from))}
				}
			}
			var got, want []int
			var wantFolds []bool
			wantEval, wantCalls := make([]int, n), make([]int, n)
			for start, first := 0, true; first || start < len(rows); first = false {
				end := min(len(rows), start+1+rng.IntN(50))
				batch := rows[start:end]
				var batchNeed []Span
				if need != nil {
					batchNeed = need[start:end]
				}
				out, err := w.Run(ctx, batch, batchNeed)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, out...)

				// Reference, one row at a time: reached[i] is the first
				// predicate row i did not pass (its span's end if none).
				reached := make([]int, len(batch))
				for i, row := range batch {
					sp := Span{0, int32(n)}
					if batchNeed != nil {
						sp = batchNeed[i]
					}
					reached[i] = int(sp.To)
					for j := int(sp.From); j < int(sp.To); j++ {
						wantEval[j]++
						if fails(j, row) {
							reached[i] = j
							break
						}
						wantCalls[j]++
						if !pass(j, row) {
							reached[i] = j
							break
						}
					}
					if reached[i] == int(sp.To) {
						want = append(want, row)
					}
				}
				// The gate folds wave by wave, each wave in row order.
				for j := 0; j < n; j++ {
					for i, row := range batch {
						sp := Span{0, int32(n)}
						if batchNeed != nil {
							sp = batchNeed[i]
						}
						if sp.covers(j) && j <= reached[i] {
							wantFolds = append(wantFolds, fails(j, row))
						}
					}
				}
				start = end
			}
			calls := make([]int, n)
			for j, m := range meters {
				calls[j] = m.Calls()
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(w.Evaluated, wantEval) ||
				!reflect.DeepEqual(calls, wantCalls) || !reflect.DeepEqual(gate.folds, wantFolds) {
				t.Fatalf("par=%d trial %d (n=%d): survivors %v evaluated %v calls %v folds %v;\nreference %v %v %v %v",
					par, trial, n, got, w.Evaluated, calls, gate.folds, want, wantEval, wantCalls, wantFolds)
			}
		}
	}
}
