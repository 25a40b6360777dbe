//go:build !race

package exec

import (
	"context"
	"testing"
)

// admitAll is a gate that admits every row in one wave and does not
// allocate, so the count below is the batch's own.
type admitAll struct{ plan []bool }

func (g *admitAll) Segment() int      { return 0 }
func (g *admitAll) Plan(n int) []bool { return g.plan[:n] }
func (g *admitAll) Record(bool)       {}

func TestEvalRowsGatedAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		rows := make([]int, n)
		gate := &admitAll{plan: make([]bool, n)}
		for i := range rows {
			rows[i], gate.plan[i] = i, true
		}
		pool := NewPool(1)
		eval := func(_ context.Context, row int) (bool, bool) { return row%2 == 0, false }
		deny := func(int) (bool, bool) { panic("nothing is denied") }
		return testing.AllocsPerRun(20, func() {
			if _, _, err := pool.EvalRowsGatedCtx(context.Background(), rows, gate, eval, deny); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(1<<14)
	// verdicts, failed and the fan-out closure; no admitted-index list.
	if small != large || large > 3 {
		t.Fatalf("all-admitting gated batch: %v allocations for 64 rows, %v for 16384; want equal and at most 3", small, large)
	}
}
