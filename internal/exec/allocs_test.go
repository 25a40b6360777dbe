//go:build !race

package exec

import (
	"context"
	"testing"
)

func TestEvalRowsGatedAllocs(t *testing.T) {
	allocs := func(n, segment int) float64 {
		rows := make([]int, n)
		gate := &admitAll{plan: make([]bool, n), segment: segment}
		for i := range rows {
			rows[i], gate.plan[i] = i, true
		}
		pool := NewPool(1) // admitAll allocates nothing: the count is the batch's own
		eval := func(_ context.Context, row int) (bool, bool) { return row%2 == 0, false }
		deny := func(int) (bool, bool) { panic("nothing is denied") }
		return testing.AllocsPerRun(20, func() {
			if _, _, err := pool.EvalRowsGatedCtx(context.Background(), rows, gate, eval, deny); err != nil {
				t.Fatal(err)
			}
		})
	}
	// verdicts, failed, and one fan-out closure per segment. Nothing per
	// row: no admitted-index list, and Record is handed the segment's own
	// slice of failed.
	for _, c := range []struct{ n, segment, want int }{
		{64, 0, 3}, {1 << 14, 0, 3}, {1 << 14, 64, 2 + 1<<14/64},
	} {
		if got := allocs(c.n, c.segment); got != float64(c.want) {
			t.Errorf("all-admitting gated batch of %d rows in segments of %d: %v allocations, want %d", c.n, c.segment, got, c.want)
		}
	}
}
