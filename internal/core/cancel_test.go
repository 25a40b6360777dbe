package core

import (
	"context"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
)

// cancelAfter wraps a UDF so the context cancels once `after` evaluations
// have started, letting tests land a cancel mid-batch deterministically.
func cancelAfter(udf UDF, after int64, cancel context.CancelFunc) UDF {
	var n atomic.Int64
	return UDFFunc(func(row int) bool {
		if n.Add(1) == after {
			cancel()
		}
		return udf.Eval(row)
	})
}

// TestTopUpCtxCancelLeavesSamplerConsistent cancels a top-up mid-batch:
// in the one predicate's batch, and in the second predicate's batch of a
// joint sample, after the first predicate evaluated every row.
func TestTopUpCtxCancelLeavesSamplerConsistent(t *testing.T) {
	groups, udf := parallelTestGroups(3000)
	even := UDFFunc(func(row int) bool { return row%2 == 0 })
	targets := []int{200, 200, 200}

	for _, in := range []struct {
		name     string
		udfs     []UDF
		cancelIn int // the predicate whose batch the cancel lands in
	}{
		{"one predicate", []UDF{udf}, 0},
		{"second of two predicates", []UDF{udf, even}, 1},
	} {
		// Reference: an uncancelled sampler over the same seed.
		ref := NewJointSampler(groups, metered(in.udfs...), stats.Key(5))
		refN, err := ref.TopUpCtx(context.Background(), targets)
		if err != nil {
			t.Fatal(err)
		}

		for _, par := range []int{1, 8} {
			ctx, cancel := context.WithCancel(context.Background())
			udfs := slices.Clone(in.udfs)
			udfs[in.cancelIn] = cancelAfter(udfs[in.cancelIn], 25, cancel)
			meters := metered(udfs...)
			s := NewJointSampler(groups, meters, stats.Key(5))
			s.SetParallelism(par)
			if _, err := s.TopUpCtx(ctx, targets); err != context.Canceled {
				t.Fatalf("%s, par=%d: err %v, want context.Canceled", in.name, par, err)
			}
			// The cancelled top-up must not have mutated the sampler: no
			// outcomes recorded, no rank cut moved.
			if got := s.TotalSampled(); got != 0 {
				t.Fatalf("%s, par=%d: cancelled TopUp recorded %d outcomes", in.name, par, got)
			}
			for i := range groups {
				if s.cut[i] != 0 {
					t.Fatalf("%s, par=%d: group %d cut moved to %#x", in.name, par, i, s.cut[i])
				}
			}
			// A retry over a live context completes and matches the
			// reference bit-for-bit: same rows sampled, same outcomes.
			n, err := s.TopUpCtx(context.Background(), targets)
			if err != nil {
				t.Fatal(err)
			}
			if n != refN {
				t.Fatalf("%s, par=%d: retry sampled %d, reference %d", in.name, par, n, refN)
			}
			if !reflect.DeepEqual(s.Outcomes(), ref.Outcomes()) {
				t.Fatalf("%s, par=%d: retry outcomes diverge from uncancelled run", in.name, par)
			}
			// The first meter charged each sampled row once, although the
			// cancelled top-up had already evaluated some or all of them.
			if got := meters[0].Calls(); got != refN {
				t.Fatalf("%s, par=%d: meter 0 charged %d calls for %d rows", in.name, par, got, refN)
			}
		}
	}
}

func TestLabelFractionParallelCtxCancel(t *testing.T) {
	groups, udf := parallelTestGroups(3000)
	rows := make([]int, 0, 3000)
	for _, g := range groups {
		rows = append(rows, g.Rows...)
	}
	for _, par := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		labeled, err := LabelFractionParallelCtx(ctx, rows, 0.2, NewMeter(cancelAfter(udf, 10, cancel)), stats.NewRNG(3), par)
		if err != context.Canceled {
			t.Fatalf("par=%d: err %v, want context.Canceled", par, err)
		}
		if labeled != nil {
			t.Fatalf("par=%d: cancelled labeling returned %d labels", par, len(labeled))
		}
	}
}

func TestExecuteParallelCtxCancel(t *testing.T) {
	groups, udf := parallelTestGroups(3000)
	s := NewStrategy(3)
	for i := range s.R {
		s.R[i], s.E[i] = 1, 1
	}
	for _, par := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		res, err := ExecuteParallelCtx(ctx, groups, s, nil, NewMeter(cancelAfter(udf, 40, cancel)), DefaultCost, stats.NewRNG(7), par)
		if err != context.Canceled {
			t.Fatalf("par=%d: err %v, want context.Canceled", par, err)
		}
		if len(res.Output) != 0 {
			t.Fatalf("par=%d: cancelled execution returned %d rows", par, len(res.Output))
		}
	}
}

func TestRunTwoPredicatesParallelCtxCancel(t *testing.T) {
	groups, udf := parallelTestGroups(1500)
	cons := Constraints{Alpha: 0.7, Beta: 0.7, Rho: 0.7}
	for _, par := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		_, _, _, err := runTwoPred(ctx, groups, NewMeter(cancelAfter(udf, 5, cancel)), NewMeter(udf), cons, defaultTargets(groups, cons), stats.NewRNG(11), par)
		if err != context.Canceled {
			t.Fatalf("par=%d: err %v, want context.Canceled", par, err)
		}
	}
}
