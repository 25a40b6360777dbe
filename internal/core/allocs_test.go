//go:build !race

package core

import (
	"context"
	"maps"
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/table"
)

// Allocation pins for the dense verdict state. The race detector changes
// allocation counts, so these run in the non-race CI step.

func TestMeterEvalAllocs(t *testing.T) {
	udf := UDFFunc(func(row int) bool { return row%2 == 0 })
	perMeter := testing.AllocsPerRun(20, func() {
		m := NewMeter(udf)
		for row := 0; row < pageRows; row++ {
			m.Eval(row)
		}
	})
	// The meter, its page and the directory (header + array): O(pages).
	if perMeter > 4 {
		t.Fatalf("a fresh meter over %d rows allocated %v times, want at most 4", pageRows, perMeter)
	}
}

func TestCachedMeterHitAllocs(t *testing.T) {
	cache := NewSharedEvalCache()
	for row := 0; row < pageRows; row++ {
		cache.Store(row, row%2 == 0)
	}
	m := NewCachedMeter(UDFFunc(func(int) bool { panic("cache hit must not evaluate") }), cache)
	row := 0
	m.Eval(row) // installs the meter's page
	if perHit := testing.AllocsPerRun(1000, func() { row++; m.Eval(row) }); perHit != 0 {
		t.Fatalf("a cached-meter hit allocated %v times, want 0", perHit)
	}
	if m.CacheHits() != row+1 || m.Calls() != 0 {
		t.Fatalf("%d hits, %d calls over %d rows", m.CacheHits(), m.Calls(), row+1)
	}
}

func TestSharedEvalCacheLookupAllocs(t *testing.T) {
	cache := NewSharedEvalCache()
	cache.Store(5, true)
	if n := testing.AllocsPerRun(1000, func() {
		cache.Lookup(5)            // hit
		cache.Lookup(6)            // miss on a live page
		cache.Lookup(9 * pageRows) // miss beyond the directory
	}); n != 0 {
		t.Fatalf("Lookup allocated %v times, want 0", n)
	}
}

// TestSamplerTopUpAllocs pins that a top-up allocates for the rows it draws,
// not for the group it draws them from: k rows of a 2²⁰-row group cost the
// meter's state pages they land on and the top-up's own O(k) scratch — no
// copy of the group's 8 MiB of row ids.
func TestSamplerTopUpAllocs(t *testing.T) {
	rows := make([]int, 1<<20)
	for i := range rows {
		rows[i] = i
	}
	groups := []Group{{Key: "all", Rows: rows}}
	udf := UDFFunc(func(row int) bool { return row%3 == 0 })
	for _, k := range []int{16, 64} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := NewJointSampler(groups, []*Meter{NewMeter(udf)}, stats.Key(k))
		if _, err := s.TopUpCtx(context.Background(), []int{k}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if s.TotalSampled() != k {
			t.Fatalf("k=%d: sampled %d", k, s.TotalSampled())
		}
		// A state page (2 KiB) per drawn row at worst, plus O(k) scratch.
		if bytes, limit := after.TotalAlloc-before.TotalAlloc, uint64(4096*k+32<<10); bytes > limit {
			t.Fatalf("a %d-row top-up over %d rows allocated %d bytes, want at most %d", k, len(rows), bytes, limit)
		}
	}
}

// TestExecuteAllocsIndependentOfGroupSize pins that the coin executor
// allocates per call, not per row: its buffers are sized once, the sampled
// rows are two bitsets (table.Known), and the ordered answer one more. A group
// 16 times larger costs no more allocations (the meter is warm, so its
// pages are not counted).
func TestExecuteAllocsIndependentOfGroupSize(t *testing.T) {
	pool := exec.NewPool(1)
	defer pool.Close()
	perCall := func(n int) float64 {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = n - 1 - i
		}
		groups := []Group{{Key: "all", Rows: rows}}
		sampled := map[int]bool{}
		for i := 0; i < n; i += 50 {
			sampled[i] = i%100 == 0
		}
		samples := []SampleOutcome{{Results: table.CollectVerdicts(maps.All(sampled))}}
		s := NewStrategy(1)
		s.R[0], s.E[0] = 0.9, 0.5
		meters := []*Meter{NewMeter(UDFFunc(func(row int) bool { return row%3 == 0 }))}
		run := func() {
			if _, err := ExecuteSpansParallelCtx(context.Background(), groups, s, nil, samples, meters, DefaultCost, stats.Key(9), pool); err != nil {
				t.Fatal(err)
			}
		}
		run() // warms the meter's pages
		return testing.AllocsPerRun(20, run)
	}
	small, large := perCall(1<<12), perCall(1<<16)
	if small != large {
		t.Fatalf("a call over %d rows allocated %v times, over %d rows %v: want the same", 1<<12, small, 1<<16, large)
	}
	t.Logf("%v allocations per call", small)
}
