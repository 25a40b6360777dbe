//go:build !race

package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/stats"
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
