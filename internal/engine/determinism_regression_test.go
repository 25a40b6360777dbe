package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/table"
)

// flushedLogBytes builds an engine with several dirty eval caches (enough
// distinct keys that map iteration order is effectively never the same
// twice), flushes them into a fresh catalog, and returns the raw WAL
// bytes.
func flushedLogBytes(t *testing.T) []byte {
	t.Helper()
	e, _, _ := newTestEngine(t, 10)
	dir := t.TempDir()
	c, err := catalog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e.SetCatalog(c)
	for i := 0; i < 8; i++ {
		key := evalCacheKey{table: "loans", udf: fmt.Sprintf("udf%d", i), column: "id"}
		e.evalCache(key, 10).Store(i, i%2 == 0)
	}
	if err := e.FlushCatalog(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "catalog.log"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFlushCatalogDeterministicRecordOrder pins the maporder fix in
// FlushCatalog: flushing the same set of eval caches must append WAL
// records in the same order — byte-identical logs — on every run, not in
// map iteration order.
func TestFlushCatalogDeterministicRecordOrder(t *testing.T) {
	first := flushedLogBytes(t)
	if len(first) == 0 {
		t.Fatal("flush wrote no WAL records")
	}
	for i := 0; i < 3; i++ {
		if next := flushedLogBytes(t); !bytes.Equal(first, next) {
			t.Fatalf("flush %d produced a different WAL byte stream than the first flush", i+2)
		}
	}
}

// TestRegistryNamesSorted pins the maporder fix in Registry.Names: the
// listing must come back sorted, not in map iteration order.
func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid", "beta", "omega", "kappa", "nu", "eps"} {
		if err := r.Register(UDF{Name: name, Body: pure(func(table.Value) bool { return true })}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		names := r.Names()
		if !sort.StringsAreSorted(names) {
			t.Fatalf("Names() not sorted: %v", names)
		}
		if len(names) != 8 {
			t.Fatalf("Names() returned %d names, want 8", len(names))
		}
	}
}

// TestEngineListingsSorted pins the same fix in the engine's two other
// map-backed listings, GET /tables and the breaker series on GET /metrics.
func TestEngineListingsSorted(t *testing.T) {
	names := []string{"zeta", "alpha", "mid", "beta", "omega", "kappa", "nu", "eps"}
	e := New(1)
	for _, name := range names {
		if err := e.RegisterTable(table.New(name, table.MustSchema(table.ColumnDef{Name: "id", Type: table.Int}))); err != nil {
			t.Fatal(err)
		}
		e.breakerFor("b", name)
		e.breakerFor("a", name)
	}
	for i := 0; i < 5; i++ {
		if got := e.TableNames(); len(got) != len(names) || !sort.StringsAreSorted(got) {
			t.Fatalf("TableNames() = %v, want %d names sorted", got, len(names))
		}
		sts := e.BreakerStatuses()
		keys := make([]string, len(sts))
		for j, s := range sts {
			keys[j] = s.Table + "\x00" + s.UDF
		}
		if len(keys) != 2*len(names) || !sort.StringsAreSorted(keys) {
			t.Fatalf("BreakerStatuses() = %+v, want %d in (table, UDF) order", sts, 2*len(names))
		}
	}
}
