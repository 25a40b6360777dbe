//go:build !race

package resilience

import (
	"context"
	"testing"
)

// TestDoAllocs pins Do at zero allocations under the zero policy with a
// closure over a local: Do neither retains fn nor hands it to another
// goroutine, so the closure stays on the caller's stack. This is the
// engine's per-row attempt shape. The race detector changes allocation
// counts, so this runs in the non-race CI step.
func TestDoAllocs(t *testing.T) {
	ctx := context.Background()
	row := 0
	allocs := testing.AllocsPerRun(1000, func() {
		row++
		v, _, err := Do(ctx, Policy{}, uint64(row), func(context.Context) (bool, error) { return row%2 == 0, nil })
		if err != nil || v != (row%2 == 0) {
			t.Fatalf("Do = (%v, %v) on row %d", v, err, row)
		}
	})
	if allocs != 0 {
		t.Fatalf("Do allocated %v times per call, want 0", allocs)
	}
}
