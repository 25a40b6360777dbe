//go:build !race

package obs

import (
	"context"
	"testing"
)

// TestTimedDoesNotAllocate pins the per-batch cost of the closure-scoped
// span API: on an untraced context a capturing closure stays on the stack
// (Timed only calls fn), so the operator sites pay two clock reads and
// nothing else. Excluded under -race, whose instrumentation allocates.
func TestTimedDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	rows, sum := []int{1, 2, 3}, 0
	allocs := testing.AllocsPerRun(1000, func() {
		Timed(ctx, "op:scan", func() {
			for _, r := range rows {
				sum += r
			}
		})
	})
	if allocs != 0 {
		t.Errorf("Timed on an untraced context allocates %.1f times per call, want 0", allocs)
	}
}
