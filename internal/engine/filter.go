package engine

import (
	"fmt"
	"slices"

	"repro/internal/table"
)

// Cheap-predicate evaluation reads the table's posting index, not the
// table. An equality filter's answer is a posting list: the ascending row
// ids whose cell renders as the literal (table.Postings), built by one typed
// pass over the column the first time a statement names the value and
// cached with the table. The filtered universe is the lists' intersection,
// taken smallest first: the shortest list is walked, and every other filter
// is applied by its typed predicate (table.Matcher) on each of those rows,
// most selective first. So a statement whose values were named before does
// the shortest list's work, not the table's; one naming a value for the
// first time also pays a column pass for it. The rows come out in
// base-table order — everything downstream (batches, samples, coins) sees
// exactly what a full scan would have kept.

// filterRows answers the statement's cheap filters: the rows every filter
// keeps, ascending, never nil (an empty universe is not "every row").
func filterRows(tbl *table.Table, filters []Filter) ([]int, error) {
	lists := make([][]int32, len(filters))
	order := make([]int, len(filters))
	for i, f := range filters {
		rows, err := tbl.Postings(f.Column, f.Value)
		if err != nil {
			return nil, fmt.Errorf("engine: table %q has no column %q to filter on", tbl.Name(), f.Column)
		}
		lists[i], order[i] = rows, i
	}
	// Stable, so equally selective filters keep query order.
	slices.SortStableFunc(order, func(a, b int) int { return len(lists[a]) - len(lists[b]) })
	probes := make([]func(row int) bool, len(order)-1)
	for j, i := range order[1:] {
		probes[j] = table.Matcher(tbl.ColumnByName(filters[i].Column), filters[i].Value)
	}
	out := []int{}
next:
	for _, r32 := range lists[order[0]] {
		r := int(r32)
		for _, match := range probes {
			if !match(r) {
				continue next
			}
		}
		out = append(out, r)
	}
	return out, nil
}
