package catalog

import (
	"cmp"
	"encoding/binary"
	"iter"
	"math"
	"slices"
)

// verdicts is the dense verdict set of one OutcomeKey: rows ascending and
// distinct, and bit i of bits (least significant first) the verdict of
// rows[i]. Its size follows the number of verdicts, never the largest row
// id. A set is not changed once built, so an iterator over it needs no
// lock.
type verdicts struct {
	rows []int
	bits []byte
}

func (s verdicts) len() int { return len(s.rows) }

func (s verdicts) at(i int) bool { return s.bits[i>>3]>>(i&7)&1 == 1 }

// all yields the set's verdicts in ascending row order.
func (s verdicts) all() iter.Seq2[int, bool] {
	return func(yield func(int, bool) bool) {
		for i, row := range s.rows {
			if !yield(row, s.at(i)) {
				return
			}
		}
	}
}

// push appends a verdict for a row above every row the set holds. Only a
// set under construction is pushed to.
func (s *verdicts) push(row int, v bool) {
	i := len(s.rows)
	s.rows = append(s.rows, row)
	if i&7 == 0 {
		s.bits = append(s.bits, 0)
	}
	if v {
		s.bits[i>>3] |= 1 << (i & 7)
	}
}

// collect gathers seq into a set, keeping the last verdict seen for a row
// and dropping negative rows (a row id is a table position). An ascending
// seq, as the engine's caches and every record yield, is packed as it
// comes; any other order is sorted first.
func collect(seq iter.Seq2[int, bool]) verdicts {
	type entry struct {
		row int
		v   bool
	}
	var s verdicts
	var rest []entry // from the first row out of ascending order on
	for row, v := range seq {
		switch {
		case row < 0:
		case rest == nil && (s.len() == 0 || row > s.rows[s.len()-1]):
			s.push(row, v)
		default:
			rest = append(rest, entry{row, v})
		}
	}
	if rest == nil {
		return s
	}
	all := make([]entry, 0, s.len()+len(rest))
	for row, v := range s.all() {
		all = append(all, entry{row, v})
	}
	all = append(all, rest...)
	slices.SortStableFunc(all, func(a, b entry) int { return cmp.Compare(a.row, b.row) })
	var out verdicts
	for i, e := range all {
		if i+1 < len(all) && all[i+1].row == e.row {
			continue // a later verdict for the row wins
		}
		out.push(e.row, e.v)
	}
	return out
}

// concat yields the sets one after another.
func concat(sets []verdicts) iter.Seq2[int, bool] {
	return func(yield func(int, bool) bool) {
		for _, s := range sets {
			for row, v := range s.all() {
				if !yield(row, v) {
					return
				}
			}
		}
	}
}

// missing returns the verdicts of next that s does not already hold: rows
// it lacks, and rows whose verdict differs (last write wins; this happens
// only after an invalidation changed the UDF body).
func (s verdicts) missing(next verdicts) verdicts {
	if s.len() == 0 {
		return next
	}
	var out verdicts
	i := 0
	for j, row := range next.rows {
		for i < s.len() && s.rows[i] < row {
			i++
		}
		if v := next.at(j); i == s.len() || s.rows[i] != row || s.at(i) != v {
			out.push(row, v)
		}
	}
	return out
}

// merge returns the union of old and upd; upd's verdict wins on a row both
// hold.
func merge(old, upd verdicts) verdicts {
	if old.len() == 0 {
		return upd
	}
	n := old.len() + upd.len()
	out := verdicts{rows: make([]int, 0, n), bits: make([]byte, 0, (n+7)/8)}
	i, j := 0, 0
	for i < old.len() || j < upd.len() {
		if j == upd.len() || i < old.len() && old.rows[i] < upd.rows[j] {
			out.push(old.rows[i], old.at(i))
			i++
			continue
		}
		if i < old.len() && old.rows[i] == upd.rows[j] {
			i++
		}
		out.push(upd.rows[j], upd.at(j))
		j++
	}
	return out
}

// gaps encodes the rows as uvarint gaps, the first counted from -1, so
// every gap is at least 1.
func (s verdicts) gaps() []byte {
	out := make([]byte, 0, len(s.rows))
	prev := -1
	for _, row := range s.rows {
		out = binary.AppendUvarint(out, uint64(row)-uint64(prev))
		prev = row
	}
	return out
}

// decodeVerdicts is gaps' inverse, paired with one packed bit per row. It
// refuses a malformed or overlong uvarint, a zero gap, a row past the
// largest int, and bits that are not exactly one per row.
func decodeVerdicts(gaps, bits []byte) (verdicts, bool) {
	n := 0
	for _, b := range gaps {
		if b < 0x80 {
			n++ // each uvarint ends in its one byte below 0x80
		}
	}
	if len(bits) != (n+7)/8 {
		return verdicts{}, false
	}
	s := verdicts{rows: make([]int, 0, n), bits: bits}
	next := uint64(0) // one past the last row decoded
	for len(gaps) > 0 {
		gap, w := binary.Uvarint(gaps)
		if w <= 0 || gap == 0 || next > math.MaxInt || gap-1 > math.MaxInt-next {
			return verdicts{}, false
		}
		row := next + gap - 1
		s.rows = append(s.rows, int(row))
		next, gaps = row+1, gaps[w:]
	}
	return s, len(s.rows) == n
}
