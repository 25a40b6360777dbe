package table

import (
	"cmp"
	"encoding/binary"
	"iter"
	"math"
	"math/bits"
	"slices"
)

// Verdicts is a dense verdict set, one fact per row: "row r was evaluated
// and returned v". Rows are ascending and distinct, and bit i of bits
// (least significant first) is the verdict of rows[i]. Its size follows
// the number of verdicts, never the largest row id. A set is not changed
// once built, so it can be shared and iterated without a lock. The zero
// value is the empty set.
type Verdicts struct {
	rows []int
	bits []byte
}

// Len is the number of verdicts in the set.
func (s Verdicts) Len() int { return len(s.rows) }

// Trues counts the set's true verdicts.
func (s Verdicts) Trues() int {
	n := 0
	for _, b := range s.bits {
		n += bits.OnesCount8(b)
	}
	return n
}

func (s Verdicts) at(i int) bool { return s.bits[i>>3]>>(i&7)&1 == 1 }

// All yields the set's verdicts in ascending row order.
func (s Verdicts) All() iter.Seq2[int, bool] {
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
func (s *Verdicts) push(row int, v bool) {
	i := len(s.rows)
	s.rows = append(s.rows, row)
	if i&7 == 0 {
		s.bits = append(s.bits, 0)
	}
	if v {
		s.bits[i>>3] |= 1 << (i & 7)
	}
}

// CollectVerdicts gathers seq into a set, keeping the last verdict seen for
// a row and dropping negative rows (a row id is a table position). An
// ascending seq is packed as it comes; any other order is sorted first.
func CollectVerdicts(seq iter.Seq2[int, bool]) Verdicts {
	type entry struct {
		row int
		v   bool
	}
	var s Verdicts
	var rest []entry // from the first row out of ascending order on
	for row, v := range seq {
		switch {
		case row < 0:
		case rest == nil && (s.Len() == 0 || row > s.rows[s.Len()-1]):
			s.push(row, v)
		default:
			rest = append(rest, entry{row, v})
		}
	}
	if rest == nil {
		return s
	}
	all := make([]entry, 0, s.Len()+len(rest))
	for row, v := range s.All() {
		all = append(all, entry{row, v})
	}
	all = append(all, rest...)
	slices.SortStableFunc(all, func(a, b entry) int { return cmp.Compare(a.row, b.row) })
	var out Verdicts
	for i, e := range all {
		if i+1 < len(all) && all[i+1].row == e.row {
			continue // a later verdict for the row wins
		}
		out.push(e.row, e.v)
	}
	return out
}

// Missing returns the verdicts of next that s does not already hold: rows
// it lacks, and rows whose verdict differs.
func (s Verdicts) Missing(next Verdicts) Verdicts {
	if s.Len() == 0 {
		return next
	}
	var out Verdicts
	i := 0
	for j, row := range next.rows {
		for i < s.Len() && s.rows[i] < row {
			i++
		}
		if v := next.at(j); i == s.Len() || s.rows[i] != row || s.at(i) != v {
			out.push(row, v)
		}
	}
	return out
}

// MergeVerdicts returns the union of old and upd; upd's verdict wins on a
// row both hold.
func MergeVerdicts(old, upd Verdicts) Verdicts {
	switch {
	case old.Len() == 0:
		return upd
	case upd.Len() == 0:
		return old
	}
	n := old.Len() + upd.Len()
	out := Verdicts{rows: make([]int, 0, n), bits: make([]byte, 0, (n+7)/8)}
	i, j := 0, 0
	for i < old.Len() || j < upd.Len() {
		if j == upd.Len() || i < old.Len() && old.rows[i] < upd.rows[j] {
			out.push(old.rows[i], old.at(i))
			i++
			continue
		}
		if i < old.Len() && old.rows[i] == upd.rows[j] {
			i++
		}
		out.push(upd.rows[j], upd.at(j))
		j++
	}
	return out
}

// Gaps encodes the rows as uvarint gaps, the first counted from -1, so
// every gap is at least 1.
func (s Verdicts) Gaps() []byte {
	out := make([]byte, 0, len(s.rows))
	prev := -1
	for _, row := range s.rows {
		out = binary.AppendUvarint(out, uint64(row)-uint64(prev))
		prev = row
	}
	return out
}

// Rows lists the set's rows ascending (shared, do not mutate).
func (s Verdicts) Rows() []int { return s.rows }

// Bits is the verdicts packed one bit per row, least significant first
// (shared, do not mutate).
func (s Verdicts) Bits() []byte { return s.bits }

// DecodeVerdicts is Gaps' inverse, paired with Bits. It refuses a
// malformed, overlong or padded uvarint, a zero gap, a row past the
// largest int, bits that are not exactly one per row and a set bit past
// the last row, so a set it accepts re-encodes to the bytes it read.
func DecodeVerdicts(gaps, bits []byte) (Verdicts, bool) {
	n := 0
	for _, b := range gaps {
		if b < 0x80 {
			n++ // each uvarint ends in its one byte below 0x80
		}
	}
	if len(bits) != (n+7)/8 || n&7 != 0 && bits[len(bits)-1]>>(n&7) != 0 {
		return Verdicts{}, false
	}
	s := Verdicts{rows: make([]int, 0, n), bits: bits}
	next := uint64(0) // one past the last row decoded
	for len(gaps) > 0 {
		gap, w := binary.Uvarint(gaps)
		if w <= 0 || w > 1 && gaps[w-1] == 0 || gap == 0 || next > math.MaxInt || gap-1 > math.MaxInt-next {
			return Verdicts{}, false
		}
		row := next + gap - 1
		s.rows = append(s.rows, int(row))
		next, gaps = row+1, gaps[w:]
	}
	return s, len(s.rows) == n
}

// RowBits is a bitset over non-negative row ids.
type RowBits []uint64

// NewRowBits returns an empty bitset that holds every row up to hi.
func NewRowBits(hi int) RowBits { return make(RowBits, rowWords(hi)) }

func rowWords(hi int) int { return (hi + 64) >> 6 }

// Set adds row, which the bitset must hold.
func (b RowBits) Set(row int) { b[row>>6] |= 1 << (row & 63) }

// Has reports whether row is in the set; a row past its end is not.
func (b RowBits) Has(row int) bool {
	w := uint(row) >> 6
	return w < uint(len(b)) && b[w]&(1<<(row&63)) != 0
}

// AppendRows appends the set rows to dst in ascending order.
func (b RowBits) AppendRows(dst []int) []int {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, w<<6|bits.TrailingZeros64(word))
		}
	}
	return dst
}

// Known is a lookup over verdict sets: a bitset of the rows whose verdict
// is known and one of those whose verdict is true. The zero value knows
// nothing. A row added twice takes its true bit from either set, so the
// sets added should be disjoint.
type Known struct{ rows, trues RowBits }

// Add makes s's verdicts known.
func (k *Known) Add(s Verdicts) {
	if s.Len() == 0 {
		return
	}
	if n := rowWords(s.rows[s.Len()-1]); n > len(k.rows) {
		k.rows = append(k.rows, make(RowBits, n-len(k.rows))...)
		k.trues = append(k.trues, make(RowBits, n-len(k.trues))...)
	}
	for i, row := range s.rows {
		k.rows.Set(row)
		if s.at(i) {
			k.trues.Set(row)
		}
	}
}

// Verdict reports row's verdict and whether it is known.
func (k *Known) Verdict(row int) (v, ok bool) { return k.trues.Has(row), k.rows.Has(row) }
