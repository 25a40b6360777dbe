//go:build !race

package engine

import (
	"testing"

	"repro/internal/dataset"
)

// TestGroupResolveAllocs pins §4.4 candidate enumeration — the whole of
// discovery's grouping work — at O(columns + groups) allocations whatever
// the row count: census has four key-like float columns (abandoned at their
// 51st value) and two predictor columns (counting sort over their codes).
// Rendering every cell into a map of strings cost ≈ 12 allocations per row.
// The race detector changes allocation counts, so this runs in the non-race
// CI step.
func TestGroupResolveAllocs(t *testing.T) {
	for _, scale := range []float64{0.1, 0.4} {
		d, err := dataset.Generate(dataset.Census.Scaled(scale), 1)
		if err != nil {
			t.Fatal(err)
		}
		st := &pipeState{tbl: d.Table, q: Query{UDFArg: "id"}}
		var cands int
		allocs := testing.AllocsPerRun(5, func() { cands = len(candidateColumns(st)) })
		if cands != 2 {
			t.Fatalf("%d candidate columns over census, want 2", cands)
		}
		if allocs > 50 {
			t.Fatalf("candidate enumeration over %d rows allocated %v times, want at most 50", d.Table.NumRows(), allocs)
		}
	}
}
