package table

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// GroupIndex partitions a table's rows by the distinct values of one
// column — the "groups" of Section 2 of the paper. The cost model assumes
// an index on the correlated attribute so examined tuples are reachable at
// constant cost; this is that index: Partition over every row, kept with a
// lookup by key.
type GroupIndex struct {
	column string
	keys   []string // distinct values, sorted for determinism
	groups []Group  // parallel to keys; rows ascending
}

// BuildGroupIndex indexes tbl on the named column. Any column type works;
// values are keyed by their canonical string rendering (see Partition).
func BuildGroupIndex(tbl *Table, column string) (*GroupIndex, error) {
	col := tbl.ColumnByName(column)
	if col == nil {
		return nil, fmt.Errorf("table %s: no column %q to index", tbl.Name(), column)
	}
	groups, _ := Partition(col, nil, 0)
	idx := &GroupIndex{column: column, groups: groups, keys: make([]string, len(groups))}
	for i, g := range groups {
		idx.keys[i] = g.Key
	}
	return idx, nil
}

// Column returns the indexed column name.
func (g *GroupIndex) Column() string { return g.column }

// NumGroups returns the number of distinct values.
func (g *GroupIndex) NumGroups() int { return len(g.keys) }

// Keys returns the distinct values in sorted order. The slice is shared;
// callers must not modify it.
func (g *GroupIndex) Keys() []string { return g.keys }

// Rows returns the row ids holding value key (nil when no row does). The
// slice is shared; callers must not modify it.
func (g *GroupIndex) Rows(key string) []int {
	i := sort.SearchStrings(g.keys, key)
	if i == len(g.keys) || g.keys[i] != key {
		return nil
	}
	return g.groups[i].Rows
}

// GroupSizes returns the tuple count per group, aligned with Keys().
func (g *GroupIndex) GroupSizes() []int {
	sizes := make([]int, len(g.groups))
	for i, grp := range g.groups {
		sizes[i] = len(grp.Rows)
	}
	return sizes
}

// Matcher compiles the equality filter "col = lit" into a typed row
// predicate. A row matches exactly when StringAt renders its cell as lit,
// but no cell is rendered: ints and floats compare raw values, strings
// dictionary codes. A literal that is not the canonical rendering of any
// value ("042", "+7", "1e2") matches nothing, and Matcher returns nil for it.
func Matcher(col Column, lit string) func(row int) bool {
	switch c := col.(type) {
	case *IntColumn:
		v, ok := intLiteral(lit)
		if !ok {
			return nil
		}
		data := c.data
		return func(row int) bool { return data[row] == v }
	case *FloatColumn:
		v, ok := floatLiteral(lit)
		if !ok {
			return nil
		}
		data := c.data
		if math.IsNaN(v) {
			// Every NaN payload renders as "NaN"; float equality matches none.
			return func(row int) bool { return math.IsNaN(data[row]) }
		}
		if v == 0 {
			// "0" and "-0" render differently; == would conflate them.
			neg := math.Signbit(v)
			return func(row int) bool {
				return data[row] == 0 && math.Signbit(data[row]) == neg
			}
		}
		return func(row int) bool { return data[row] == v }
	case *StringColumn:
		code, ok := c.lookup[lit]
		if !ok {
			return nil
		}
		data := c.data
		return func(row int) bool { return data[row] == code }
	default:
		panic("table: Matcher over an unknown column type")
	}
}

// intLiteral parses lit if it is the canonical rendering of an int64.
func intLiteral(lit string) (int64, bool) {
	v, err := strconv.ParseInt(lit, 10, 64)
	return v, err == nil && strconv.FormatInt(v, 10) == lit
}

// floatLiteral parses lit if it is the canonical rendering of a float64.
func floatLiteral(lit string) (float64, bool) {
	v, err := strconv.ParseFloat(lit, 64)
	return v, err == nil && strconv.FormatFloat(v, 'g', -1, 64) == lit
}

// postingKey names one cached posting list.
type postingKey struct{ column, lit string }

// Postings returns the ascending ids of the rows matching "column = lit"
// under Matcher's semantics: the value's posting list, whose length is the
// filter's selectivity, exactly. The first statement to name a value builds
// its list in one pass over the column, and the list is cached with the
// table, so a later filter on that value reads its matching row ids instead
// of the column. Only values some row holds are cached (a value no row
// holds comes back empty, from a new pass each time), and the lists of one
// column are disjoint, so the cache holds at most one entry per distinct
// value present and 4 bytes per row per filtered column, plus append's
// growth slack. An AppendRow invalidates every list. The slice is shared;
// callers must not modify it.
func (t *Table) Postings(column, lit string) ([]int32, error) {
	col := t.ColumnByName(column)
	if col == nil {
		return nil, fmt.Errorf("table %s: no column %q", t.name, column)
	}
	key, n := postingKey{column, lit}, t.rows
	t.postingsMu.Lock()
	if t.postingsRows != n {
		t.postings, t.postingsRows = nil, n
	}
	rows, ok := t.postings[key]
	t.postingsMu.Unlock()
	if ok {
		return rows, nil
	}
	// Built outside the lock, so a cold pass holds up no other statement;
	// two statements racing on one value both build it, and the first list
	// stored wins.
	if rows = collect(col, lit, n); len(rows) == 0 {
		return nil, nil
	}
	t.postingsMu.Lock()
	defer t.postingsMu.Unlock()
	if cached, ok := t.postings[key]; ok {
		return cached, nil
	}
	if t.postingsRows == n {
		if t.postings == nil {
			t.postings = make(map[postingKey][]int32)
		}
		t.postings[key] = rows
	}
	return rows, nil
}

// collect is one pass over the first n cells of col for the rows Matcher
// keeps. Ints, strings (by dictionary code) and floats other than NaN and
// zero compare raw values in a typed loop; NaN and the signed zeros take
// Matcher's special cases row by row.
func collect(col Column, lit string, n int) []int32 {
	switch c := col.(type) {
	case *IntColumn:
		if v, ok := intLiteral(lit); ok {
			return equalRows(c.data[:n], v)
		}
		return nil
	case *StringColumn:
		if code, ok := c.lookup[lit]; ok {
			return equalRows(c.data[:n], code)
		}
		return nil
	case *FloatColumn:
		if v, ok := floatLiteral(lit); ok && v != 0 && !math.IsNaN(v) {
			return equalRows(c.data[:n], v)
		}
	}
	match := Matcher(col, lit)
	if match == nil {
		return nil
	}
	var rows []int32
	for r := 0; r < n; r++ {
		if match(r) {
			rows = append(rows, int32(r))
		}
	}
	return rows
}

// equalRows lists the indices of data holding v.
func equalRows[T comparable](data []T, v T) []int32 {
	var rows []int32
	for r, x := range data {
		if x == v {
			rows = append(rows, int32(r))
		}
	}
	return rows
}
