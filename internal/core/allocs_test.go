//go:build !race

package core

import "testing"

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
