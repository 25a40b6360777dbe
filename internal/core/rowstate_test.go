package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
)

// countingCache counts Lookups per row on top of a SharedEvalCache.
type countingCache struct {
	*SharedEvalCache
	lookups []atomic.Int32
}

func (c *countingCache) Lookup(row int) (bool, bool) {
	c.lookups[row].Add(1)
	return c.SharedEvalCache.Lookup(row)
}

// Row classes of the stress test, by row id.
const (
	stressOK        = iota // body succeeds
	stressPanics           // body panics on its first attempt, then succeeds
	stressCancelled        // body returns context.Canceled on its first attempt, then succeeds
	stressFails            // body always fails: failed-final
	stressCached           // preloaded in the shared cache: the body never runs
	stressClasses
)

func TestMeterSingleFlightStress(t *testing.T) {
	// Rows hug both sides of three page boundaries, so the lists cross
	// pages and words, and several goroutines CAS inside one word.
	var rows []int
	for page := 0; page < 4; page++ {
		for d := 0; d < 40; d++ {
			rows = append(rows, page*pageRows+d, (page+1)*pageRows-1-d)
		}
	}
	maxRow := 4 * pageRows
	class := func(row int) int { return row % stressClasses }
	truth := func(row int) bool { return row%3 == 0 }

	cache := &countingCache{SharedEvalCache: NewSharedEvalCache(), lookups: make([]atomic.Int32, maxRow)}
	for _, row := range rows {
		if class(row) == stressCached {
			cache.Store(row, truth(row))
		}
	}
	cached := cache.Len()

	attempts := make([]atomic.Int32, maxRow)
	successes := make([]atomic.Int32, maxRow)
	body := fallibleFunc(func(_ context.Context, row int) (bool, error) {
		first := attempts[row].Add(1) == 1
		runtime.Gosched() // widen the in-flight window so others find the row claimed
		switch c := class(row); {
		case c == stressPanics && first:
			panic("transient")
		case c == stressCancelled && first:
			return false, context.Canceled
		case c == stressFails:
			return false, errors.New("broken row")
		case c == stressCached:
			t.Errorf("row %d: body ran for a cached row", row)
		}
		successes[row].Add(1)
		return truth(row), nil
	})
	m := NewResilientMeter(body, cache, nil)

	// eval is one attempt; a panic surfaces as retry, like a cancelled owner.
	eval := func(row int) (v, failed, retry bool) {
		defer func() {
			if recover() != nil {
				retry = true
			}
		}()
		v, failed = m.evalFallible(context.Background(), row)
		return v, failed, failed && class(row) != stressFails
	}

	const goroutines = 12
	lists := make([][]int, goroutines)
	touched := map[int]bool{}
	for g := range lists {
		list := append([]int(nil), rows...)
		stats.NewRNG(uint64(g)+1).Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		lists[g] = list[:len(list)*3/4] // overlapping, not identical
		for _, row := range lists[g] {
			touched[row] = true
		}
	}
	var wg sync.WaitGroup
	for _, list := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, row := range list {
				v, failed, retry := eval(row)
				for retry {
					v, failed, retry = eval(row)
				}
				if wantFail := class(row) == stressFails; failed != wantFail || v != (truth(row) && !wantFail) {
					t.Errorf("row %d (class %d): got (%v, %v)", row, class(row), v, failed)
				}
			}
		}()
	}
	wg.Wait()

	if w := m.rows.waiters.Load(); w != 0 {
		t.Errorf("%d waiters still parked after every goroutine returned", w)
	}
	succeeded, hits, failedRows, lowestFailed := 0, 0, 0, maxRow
	for row := range touched {
		wantSuccesses, wantAttempts := int32(1), int32(1)
		switch class(row) {
		case stressPanics, stressCancelled:
			wantAttempts = 2
		case stressFails:
			wantSuccesses = 0
			failedRows++
			lowestFailed = min(lowestFailed, row)
		case stressCached:
			wantSuccesses, wantAttempts = 0, 0
			hits++
		}
		if s, a := successes[row].Load(), attempts[row].Load(); s != wantSuccesses || a != wantAttempts {
			t.Errorf("row %d (class %d): %d successes, %d attempts; want %d, %d",
				row, class(row), s, a, wantSuccesses, wantAttempts)
		}
		if l := cache.lookups[row].Load(); l != 1 {
			t.Errorf("row %d: %d shared-cache lookups, want exactly 1", row, l)
		}
		_, inCache := cache.SharedEvalCache.Lookup(row)
		if v, known := m.Known(row); class(row) == stressFails {
			if known || inCache {
				t.Errorf("failed-final row %d: known=%v cached=%v", row, known, inCache)
			}
		} else if !known || v != truth(row) || !inCache {
			t.Errorf("row %d: Known = (%v, %v), cached=%v", row, v, known, inCache)
		}
		succeeded += int(wantSuccesses)
	}
	if m.Calls() != succeeded {
		t.Errorf("Calls() = %d, want %d (one per distinct successful row)", m.Calls(), succeeded)
	}
	// Every failed row settled once: the ledger counts each exactly once and
	// keeps the lowest.
	if failed, denied := m.Failures(); failed != failedRows || denied != 0 {
		t.Errorf("Failures() = (%d, %d), want (%d, 0)", failed, denied, failedRows)
	}
	if row, err := m.Failure(); row != lowestFailed || err == nil {
		t.Errorf("Failure() = (%d, %v), want row %d", row, err, lowestFailed)
	}
	if got := cache.Len(); got != cached+succeeded {
		t.Errorf("cache holds %d rows, want %d preloaded + %d evaluated", got, cached, succeeded)
	}
	if m.CacheHits() != hits || m.CacheHits()+m.CacheMisses() != len(touched) {
		t.Errorf("cache hits %d (want %d), misses %d, over %d rows", m.CacheHits(), hits, m.CacheMisses(), len(touched))
	}
}

func TestMeterNegativeRowPanics(t *testing.T) {
	cache := NewSharedEvalCache()
	for name, fn := range map[string]func(){
		"Meter.Eval":   func() { NewMeter(UDFFunc(func(int) bool { return true })).Eval(-1) },
		"Meter.Known":  func() { NewMeter(nil).Known(-3) },
		"cache.Lookup": func() { cache.Lookup(-1) },
		"cache.Store":  func() { cache.Store(-pageRows, true) },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.HasPrefix(msg, "core: negative row id") {
					t.Errorf("%s on a negative row: recovered %q, want a \"core: negative row id\" panic", name, msg)
				}
			}()
			fn()
		}()
	}
}

func TestSharedEvalCacheModel(t *testing.T) {
	rng := stats.NewRNG(7)
	// Ids cluster in three pages, one of them far out, so the directory
	// grows and pages in between stay absent.
	randRow := func() int {
		return []int{0, 3, 40}[rng.IntN(3)]*pageRows + rng.IntN(300)
	}
	cache := NewSharedEvalCache()
	model := map[int]bool{}
	for step := 0; step < 5000; step++ {
		switch rng.IntN(4) {
		case 0, 1:
			row, v := randRow(), rng.IntN(2) == 0
			cache.Store(row, v) // may overwrite an earlier outcome
			model[row] = v
		case 2:
			batch := map[int]bool{}
			for k := rng.IntN(20); k > 0; k-- {
				batch[randRow()] = rng.IntN(2) == 0
			}
			cache.Preload(batch)
			for row, v := range batch {
				model[row] = v
			}
		case 3:
			// Ascending, as a durable catalog yields: whole words at a time.
			lo, n := randRow(), rng.IntN(40)
			cache.Load(func(yield func(int, bool) bool) {
				for row := lo; row < lo+n; row++ {
					v := rng.IntN(2) == 0
					model[row] = v
					if !yield(row, v) {
						return
					}
				}
			})
		}
		row := randRow()
		v, ok := cache.Lookup(row)
		if mv, mok := model[row]; v != mv || ok != mok {
			t.Fatalf("step %d: Lookup(%d) = (%v, %v), model (%v, %v)", step, row, v, ok, mv, mok)
		}
		if cache.Len() != len(model) {
			t.Fatalf("step %d: Len %d, model %d", step, cache.Len(), len(model))
		}
	}
	if all := maps.Collect(cache.All()); !reflect.DeepEqual(all, model) {
		t.Fatalf("All yields %d rows, model %d, or outcomes differ", len(all), len(model))
	}
	var order []int
	for row := range cache.All() {
		order = append(order, row)
	}
	if !slices.IsSorted(order) {
		t.Fatal("All does not yield rows in ascending order")
	}
}

// TestSharedEvalCacheLoadRacesStore loads ascending runs while other
// goroutines store the same rows one at a time: every row is counted once,
// whichever writer reaches it first.
func TestSharedEvalCacheLoadRacesStore(t *testing.T) {
	cache := NewSharedEvalCache()
	const distinct = 3 * pageRows / 2
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				cache.Load(func(yield func(int, bool) bool) {
					for row := g; row < distinct; row++ {
						if !yield(row, row%2 == 0) {
							return
						}
					}
				})
				return
			}
			for i := 0; i < distinct; i++ {
				row := (i*7 + g*101) % distinct
				cache.Store(row, row%2 == 0)
			}
		}()
	}
	wg.Wait()
	if n := len(maps.Collect(cache.All())); cache.Len() != distinct || n != distinct {
		t.Fatalf("Len %d, All %d rows, want %d", cache.Len(), n, distinct)
	}
	for row := 0; row < distinct; row++ {
		if v, ok := cache.Lookup(row); !ok || v != (row%2 == 0) {
			t.Fatalf("row %d: Lookup = (%v, %v)", row, v, ok)
		}
	}
}

func TestSharedEvalCacheLenUnderDuplicateStores(t *testing.T) {
	cache := NewSharedEvalCache()
	const goroutines, distinct = 8, 3 * pageRows / 2
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < distinct; i++ {
				row := (i*7 + g*101) % distinct // every goroutine stores every row, each in its own order
				cache.Store(row, row%2 == 0)
				if v, ok := cache.Lookup(row); !ok || v != (row%2 == 0) {
					t.Errorf("row %d: Lookup = (%v, %v) right after Store", row, v, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(maps.Collect(cache.All())); cache.Len() != distinct || n != distinct {
		t.Fatalf("Len %d, All %d rows, want %d", cache.Len(), n, distinct)
	}
}
