package table

import (
	"math"
	"slices"
	"strconv"
	"strings"
)

// Group is one cell of a column partition: a distinct value's canonical
// rendering (what StringAt returns for it) and the rows holding it.
type Group struct {
	Key  string
	Rows []int
}

// Partition groups a row universe by col's value. It is the engine's single
// grouping routine (GROUP ON, §4.4 discovery, the catalog memo, the join and
// GroupIndex all call it), so its contract is the grouping contract:
//
//   - universe lists the rows to group, ascending or in any caller order;
//     nil means every row of the column. Rows keep universe order inside a
//     group.
//   - Two rows share a group exactly when StringAt renders them alike: ints
//     by value, floats by bit pattern (so -0 and 0 stay apart) except that
//     every NaN payload is the one key "NaN", strings by dictionary code.
//   - Groups come back sorted byte-wise on the rendered key ("10" < "9"),
//     and no group is empty.
//   - maxGroups > 0 caps the number of groups: ok is false as soon as a
//     (maxGroups+1)-th distinct value is known, without looking at the
//     remaining rows; maxGroups <= 0 means no cap. Under a universe the cap
//     counts the values live in it, not the column's dictionary.
//
// Each distinct value is rendered once, not once per row, and the groups'
// Rows are slices of one backing array, cut with cap == len so a consumer's
// append cannot reach the neighbouring group.
func Partition(col Column, universe []int, maxGroups int) (groups []Group, ok bool) {
	codes, keys, counts, ok := encode(col, universe, maxGroups)
	if !ok {
		return nil, false
	}
	return scatter(codes, universe, keys, counts), true
}

// Codes is the first half of Partition over a whole column, for callers that
// match values rather than list rows (the join): codes[row] indexes keys, the
// rendered distinct values in no particular order, and counts, the rows per
// value. The slices may be the column's own storage; callers must not modify
// them. A key may have no row.
func Codes(col Column) (codes []int32, keys []string, counts []int) {
	codes, keys, counts, _ = encode(col, nil, 0)
	return codes, keys, counts
}

// encode reduces the universe's rows to dense value codes: codes[i] is the
// code of the i-th universe row (of row i when universe is nil), keys[code]
// the value's rendering and counts[code] how many of the rows carry it. It
// stops with ok false at the (maxGroups+1)-th value that has a row.
func encode(col Column, universe []int, maxGroups int) (codes []int32, keys []string, counts []int, ok bool) {
	switch c := col.(type) {
	case *StringColumn:
		return encodeStrings(c, universe, maxGroups)
	case *IntColumn:
		return encodeNumeric(c.data, universe, maxGroups,
			func(v int64) int64 { return v },
			func(k int64) string { return strconv.FormatInt(k, 10) })
	case *FloatColumn:
		return encodeNumeric(c.data, universe, maxGroups, floatKey,
			func(k uint64) string { return strconv.FormatFloat(math.Float64frombits(k), 'g', -1, 64) })
	default:
		panic("table: Partition over an unknown column type")
	}
}

var nanKey = math.Float64bits(math.NaN())

// floatKey maps a float to the bits its rendering is injective on.
func floatKey(v float64) uint64 {
	if v != v {
		return nanKey
	}
	return math.Float64bits(v)
}

// encodeStrings counts rows per dictionary code. The cap counts the codes the
// rows reach, never the dictionary: a subset may touch few of its entries,
// and an entry may have no row at all (a rolled-back AppendRow leaves one).
func encodeStrings(c *StringColumn, universe []int, maxGroups int) ([]int32, []string, []int, bool) {
	codes := c.data
	if universe != nil {
		codes = make([]int32, len(universe))
	}
	counts := make([]int, len(c.dict))
	live := 0
	for i := range codes {
		code := codes[i]
		if universe != nil {
			code = c.data[universe[i]]
			codes[i] = code
		}
		if counts[code] == 0 {
			if live++; maxGroups > 0 && live > maxGroups {
				return nil, nil, nil, false
			}
		}
		counts[code]++
	}
	return codes, c.dict, counts, true
}

// encodeNumeric assigns dense codes in first-seen order through a typed map,
// so a key-like column is abandoned at its (maxGroups+1)-th value, and
// renders each distinct value once, only after the column has passed.
func encodeNumeric[V any, K comparable](data []V, universe []int, maxGroups int, key func(V) K, render func(K) string) ([]int32, []string, []int, bool) {
	n := len(universe)
	if universe == nil {
		n = len(data)
	}
	hint := min(max(maxGroups, 0), n)
	codes := make([]int32, n)
	codeOf := make(map[K]int32, hint)
	distinct := make([]K, 0, hint)
	counts := make([]int, 0, hint)
	for i := range codes {
		r := i
		if universe != nil {
			r = universe[i]
		}
		k := key(data[r])
		code, seen := codeOf[k]
		if !seen {
			if maxGroups > 0 && len(distinct) == maxGroups {
				return nil, nil, nil, false
			}
			code = int32(len(distinct))
			codeOf[k] = code
			distinct = append(distinct, k)
			counts = append(counts, 0)
		}
		counts[code]++
		codes[i] = code
	}
	keys := make([]string, len(distinct))
	for code, k := range distinct {
		keys[code] = render(k)
	}
	return codes, keys, counts, true
}

// scatter finishes a partition by counting sort over encode's output. Codes
// with no row yield no group.
func scatter(codes []int32, universe []int, keys []string, counts []int) []Group {
	type cell struct {
		key  string
		code int
	}
	cells := make([]cell, 0, len(counts))
	for code, n := range counts {
		if n > 0 {
			cells = append(cells, cell{keys[code], code})
		}
	}
	slices.SortFunc(cells, func(a, b cell) int { return strings.Compare(a.key, b.key) })

	// next[code] is where the code's next row lands in the backing array.
	next := make([]int, len(counts))
	groups := make([]Group, len(cells))
	backing := make([]int, len(codes))
	at := 0
	for i, c := range cells {
		end := at + counts[c.code]
		next[c.code] = at
		groups[i] = Group{Key: c.key, Rows: backing[at:end:end]}
		at = end
	}
	for i, code := range codes {
		r := i
		if universe != nil {
			r = universe[i]
		}
		backing[next[code]] = r
		next[code]++
	}
	return groups
}
