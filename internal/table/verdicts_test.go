package table

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestVerdictsRoundTrip: the gap encoding decodes to the rows it encoded,
// from row 0 to the largest int, and collect sorts, dedupes (the last
// verdict wins) and drops negative rows.
func TestVerdictsRoundTrip(t *testing.T) {
	in := map[int]bool{0: true, 1: false, 127: true, 128: true, 1 << 20: false, 1<<20 + 16384: true, math.MaxInt - 1: false, math.MaxInt: true, -7: true}
	s := CollectVerdicts(maps.All(in))
	delete(in, -7)
	if got := maps.Collect(s.All()); !reflect.DeepEqual(got, in) {
		t.Fatalf("collect: %v, want %v", got, in)
	}
	if !sort.IntsAreSorted(s.rows) {
		t.Fatalf("collect left rows out of order: %v", s.rows)
	}
	back, ok := DecodeVerdicts(s.Gaps(), s.Bits())
	if !ok || !reflect.DeepEqual(back.rows, s.rows) || !reflect.DeepEqual(maps.Collect(back.All()), in) {
		t.Fatalf("round trip: %v %v, want %v", ok, maps.Collect(back.All()), in)
	}
	dup := CollectVerdicts(func(yield func(int, bool) bool) {
		_ = yield(5, true) && yield(3, true) && yield(5, false)
	})
	if got := maps.Collect(dup.All()); !reflect.DeepEqual(got, map[int]bool{3: true, 5: false}) {
		t.Fatalf("a later verdict for a row must win: %v", got)
	}
}

// verdictStream reads b as (row, verdict) entries of three bytes each: a
// signed 16-bit row, so negative rows and rows across several bitset words
// both occur, then a byte whose low bit is the verdict.
func verdictStream(b []byte) func(yield func(int, bool) bool) {
	return func(yield func(int, bool) bool) {
		for ; len(b) >= 3; b = b[3:] {
			if !yield(int(int16(binary.LittleEndian.Uint16(b))), b[2]&1 == 1) {
				return
			}
		}
	}
}

// FuzzVerdicts holds the verdict set to a map model. DecodeVerdicts never
// panics on arbitrary gap and bit bytes, and a set it accepts re-encodes
// to the same bytes. CollectVerdicts of a fuzzed stream, MergeVerdicts and
// Missing of two such sets, and Known over one equal what a map[int]bool
// gives, with rows ascending.
func FuzzVerdicts(f *testing.F) {
	f.Add([]byte{1, 2, 0x80, 1}, []byte{5}, []byte{3, 0, 1, 1, 0, 0, 3, 0, 0}, []byte{1, 0, 1, 0xff, 0xff, 1})
	f.Add([]byte{0x81, 0}, []byte{1}, []byte{}, []byte{0x40, 0, 1})
	f.Add([]byte{}, []byte{}, []byte{0, 1, 1, 0xc8, 0, 0, 0, 1, 0}, []byte{0xc8, 0, 1, 0, 1, 1})
	f.Add([]byte{1}, []byte{0xff}, []byte{0xff, 0x7f, 1}, []byte{})
	f.Fuzz(func(t *testing.T, gaps, bits, a, b []byte) {
		if s, ok := DecodeVerdicts(gaps, bits); ok {
			if !bytes.Equal(s.Gaps(), gaps) || !bytes.Equal(s.Bits(), bits) {
				t.Fatalf("decoded %v / %v, re-encoded %v / %v", gaps, bits, s.Gaps(), s.Bits())
			}
			checkSet(t, "decoded", s, maps.Collect(s.All()))
		}
		ma, mb := maps.Collect(verdictStream(a)), maps.Collect(verdictStream(b))
		maps.DeleteFunc(ma, func(row int, _ bool) bool { return row < 0 })
		maps.DeleteFunc(mb, func(row int, _ bool) bool { return row < 0 })
		sa, sb := CollectVerdicts(verdictStream(a)), CollectVerdicts(verdictStream(b))
		checkSet(t, "collected", sa, ma)
		merged := maps.Clone(ma)
		maps.Copy(merged, mb)
		checkSet(t, "merged", MergeVerdicts(sa, sb), merged)
		missing := maps.Clone(mb)
		maps.DeleteFunc(missing, func(row int, v bool) bool { old, ok := ma[row]; return ok && old == v })
		checkSet(t, "missing", sa.Missing(sb), missing)
		if back, ok := DecodeVerdicts(sa.Gaps(), sa.Bits()); !ok {
			t.Fatalf("a collected set did not decode: %v", sa.rows)
		} else {
			checkSet(t, "round trip", back, ma)
		}
		var k Known
		k.Add(sa)
		probes := []int{-1, 0, 63, 64, 1<<15 + 64}
		for row := range mb {
			probes = append(probes, row-1, row, row+1)
		}
		for _, row := range append(probes, sa.rows...) {
			want, wantOK := ma[row]
			if v, ok := k.Verdict(row); v != want || ok != wantOK {
				t.Fatalf("known row %d: %v %v, want %v %v", row, v, ok, want, wantOK)
			}
		}
		if got := k.rows.AppendRows(nil); !slices.Equal(got, sa.rows) {
			t.Fatalf("known rows %v, want %v", got, sa.rows)
		}
	})
}

// checkSet fails unless s holds exactly want, rows strictly ascending, and
// counts its true verdicts.
func checkSet(t *testing.T, what string, s Verdicts, want map[int]bool) {
	t.Helper()
	trues := 0
	for i, row := range s.Rows() {
		if i > 0 && s.rows[i-1] >= row {
			t.Fatalf("%s: rows not strictly ascending: %v", what, s.rows)
		}
		if s.at(i) {
			trues++
		}
	}
	if got := maps.Collect(s.All()); s.Len() != len(want) || len(got) != len(want) || !maps.Equal(got, want) {
		t.Fatalf("%s: %v, want %v", what, got, want)
	}
	if s.Trues() != trues {
		t.Fatalf("%s: Trues() = %d, %d verdicts are true", what, s.Trues(), trues)
	}
}
