package table

import (
	"fmt"
	"sort"
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
