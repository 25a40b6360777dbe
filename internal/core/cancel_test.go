package core

import (
	"context"
	"reflect"
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

func TestTopUpCtxCancelLeavesSamplerConsistent(t *testing.T) {
	groups, udf := parallelTestGroups(3000)
	targets := []int{200, 200, 200}

	// Reference: an uncancelled sampler over the same seed.
	ref := NewSampler(groups, NewMeter(udf), stats.NewRNG(5))
	refN, err := ref.TopUpCtx(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		s := NewSampler(groups, NewMeter(cancelAfter(udf, 25, cancel)), stats.NewRNG(5))
		s.SetParallelism(par)
		if _, err := s.TopUpCtx(ctx, targets); err != context.Canceled {
			t.Fatalf("par=%d: err %v, want context.Canceled", par, err)
		}
		// The cancelled top-up must not have mutated the sampler: no
		// outcomes recorded, no rows popped.
		if got := s.TotalSampled(); got != 0 {
			t.Fatalf("par=%d: cancelled TopUp recorded %d outcomes", par, got)
		}
		for i := range groups {
			if len(s.unsampled[i]) != len(groups[i].Rows) {
				t.Fatalf("par=%d: group %d pool shrank to %d of %d",
					par, i, len(s.unsampled[i]), len(groups[i].Rows))
			}
		}
		// A retry over a live context completes and matches the reference
		// bit-for-bit: same rows sampled, same outcomes.
		n, err := s.TopUpCtx(context.Background(), targets)
		if err != nil {
			t.Fatal(err)
		}
		if n != refN {
			t.Fatalf("par=%d: retry sampled %d, reference %d", par, n, refN)
		}
		if !reflect.DeepEqual(s.Outcomes(), ref.Outcomes()) {
			t.Fatalf("par=%d: retry outcomes diverge from uncancelled run", par)
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
