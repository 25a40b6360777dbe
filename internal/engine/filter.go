package engine

import (
	"math"
	"strconv"

	"repro/internal/table"
)

// Cheap-predicate evaluation over the column store. Filter literals arrive
// as strings (the SQL layer's rendering); rather than re-rendering every
// cell with StringAt per row, each filter is compiled once per column into
// a typed predicate that compares raw []int64 / []float64 / dictionary
// codes directly. Semantics match the old render-and-compare exactly: a
// literal that is not the canonical rendering of any cell value (e.g.
// "042", "+7", "1e2") matches nothing, just as it never equaled a
// canonical StringAt before.

// matchNone is the compiled form of a literal no cell can render as.
func matchNone(int) bool { return false }

// compileFilter turns one equality filter into a typed row predicate.
func compileFilter(col table.Column, lit string) func(row int) bool {
	switch c := col.(type) {
	case *table.IntColumn:
		v, err := strconv.ParseInt(lit, 10, 64)
		if err != nil || strconv.FormatInt(v, 10) != lit {
			return matchNone
		}
		data := c.Data()
		return func(row int) bool { return data[row] == v }
	case *table.FloatColumn:
		v, err := strconv.ParseFloat(lit, 64)
		if err != nil || strconv.FormatFloat(v, 'g', -1, 64) != lit {
			return matchNone
		}
		data := c.Data()
		if math.IsNaN(v) {
			// StringAt renders NaN as "NaN", which the old comparison
			// matched; float equality would not.
			return func(row int) bool { return math.IsNaN(data[row]) }
		}
		if v == 0 {
			// "0" and "-0" render differently, so only the same-signed
			// zero matched before; == would conflate them.
			neg := math.Signbit(v)
			return func(row int) bool {
				return data[row] == 0 && math.Signbit(data[row]) == neg
			}
		}
		return func(row int) bool { return data[row] == v }
	case *table.StringColumn:
		code := c.LookupCode(lit)
		if code < 0 {
			return matchNone
		}
		return func(row int) bool { return c.Code(row) == code }
	default:
		return func(row int) bool { return col.StringAt(row) == lit }
	}
}
