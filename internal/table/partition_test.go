package table

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// referencePartition is the builder Partition replaced, kept as the oracle:
// render every cell of the universe and group in a map of strings.
func referencePartition(col Column, universe []int, maxGroups int) ([]Group, bool) {
	if universe == nil {
		universe = make([]int, col.Len())
		for r := range universe {
			universe[r] = r
		}
	}
	byKey := make(map[string][]int)
	for _, r := range universe {
		byKey[col.StringAt(r)] = append(byKey[col.StringAt(r)], r)
	}
	if maxGroups > 0 && len(byKey) > maxGroups {
		return nil, false
	}
	groups := make([]Group, 0, len(byKey))
	for k, rows := range byKey {
		groups = append(groups, Group{k, rows})
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].Key < groups[b].Key })
	return groups, true
}

// Value palettes: few enough values that rows collide, chosen so the traps
// are all in reach — keys whose byte order is not numeric order, ±0, NaNs
// with different payloads, the empty string.
var (
	intPalette = []int64{0, 1, -1, 9, 10, 11, 100, -10, 2, 20, 19, math.MaxInt64, math.MinInt64, 5, 50, 500}
	fltPalette = []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000abc),
		1, -1, 9, 10, 1.5, 1e21, 1e-7, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, 0.1, 100}
	strPalette = []string{"", "a", "b", "A", "10", "9", "a\x00", "é", "ab", "0", "-0", "NaN", "z", "aa", " ", "1e+21"}
)

// checkPartitionCase decodes one case from bytes — column type, universe
// shape, cap choice, then one row per byte (low nibble: palette value, bit 4:
// in the subset) — and holds Partition to the reference on the over-cap
// verdict, keys, key order and row lists. The differential test and
// FuzzPartition share it.
func checkPartitionCase(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 3 {
		return
	}
	kind, universeMode, capMode, cells := data[0]%3, data[1]%3, data[2], data[3:]
	col := newColumn([]Type{Int, Float, String}[kind])
	var subset []int
	for r, b := range cells {
		var v Value
		switch kind {
		case 0:
			v = intPalette[b&15]
		case 1:
			v = fltPalette[b&15]
		default:
			v = strPalette[b&15]
		}
		if err := col.append(v); err != nil {
			t.Fatal(err)
		}
		if b&16 != 0 {
			subset = append(subset, r)
		}
	}
	var universe []int
	switch universeMode {
	case 1:
		universe = append([]int{}, subset...) // ascending; may be empty
	case 2:
		universe = []int{}
	}
	all, _ := referencePartition(col, universe, 0)
	for _, maxGroups := range []int{0, len(all), len(all) - 1, 1 + int(capMode)%8} {
		want, wantOK := referencePartition(col, universe, maxGroups)
		got, ok := Partition(col, universe, maxGroups)
		if ok != wantOK {
			t.Fatalf("cap %d over %d distinct values: ok = %t, reference says %t", maxGroups, len(all), ok, wantOK)
		}
		if !ok {
			if got != nil {
				t.Fatalf("cap %d: over-cap verdict came with %d groups", maxGroups, len(got))
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cap %d, universe %v:\n got %v\nwant %v", maxGroups, universe, got, want)
		}
		for _, g := range got {
			if cap(g.Rows) != len(g.Rows) {
				t.Fatalf("group %q: cap %d != len %d, an append would write into its neighbour", g.Key, cap(g.Rows), len(g.Rows))
			}
		}
	}
}

func TestPartitionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 600; trial++ {
		data := make([]byte, 3+rng.Intn(200))
		rng.Read(data)
		if trial%5 == 0 {
			// A single-value column.
			for i := 3; i < len(data); i++ {
				data[i] = data[3]&15 | data[i]&16
			}
		}
		checkPartitionCase(t, data)
	}
}

func FuzzPartition(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 3, 4, 3})                // ints 10, 9: "10" sorts first
	f.Add([]byte{1, 0, 1, 0, 1, 2, 3, 2})             // ±0 apart, NaN payloads together
	f.Add([]byte{2, 1, 2, 16, 1, 17, 18, 0})          // strings under a subset
	f.Add([]byte{2, 2, 0, 1, 2, 3})                   // empty universe
	f.Add([]byte{1, 1, 7, 20, 21, 22, 23, 24, 9, 10}) // cap met inside the subset only
	f.Fuzz(checkPartitionCase)
}

// TestPartitionContract spells out, without the reference, the rules a
// reader of Partition's doc comment relies on.
func TestPartitionContract(t *testing.T) {
	floats := &FloatColumn{data: []float64{0, math.Copysign(0, -1), math.NaN(), 1, math.Float64frombits(0x7ff8000000000abc), 0}}
	got, ok := Partition(floats, nil, 0)
	want := []Group{{"-0", []int{1}}, {"0", []int{0, 5}}, {"1", []int{3}}, {"NaN", []int{2, 4}}}
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("floats: %v, want %v", got, want)
	}

	ints := &IntColumn{data: []int64{9, 10, 9, 100}}
	got, _ = Partition(ints, []int{3, 2, 1, 0}, 0)
	want = []Group{{"10", []int{1}}, {"100", []int{3}}, {"9", []int{2, 0}}} // byte-wise keys, universe row order
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ints: %v, want %v", got, want)
	}
	if _, ok := Partition(ints, nil, 2); ok {
		t.Fatal("three distinct ints passed a cap of two")
	}

	// Appending to one group must not reach the next one's rows.
	first := got[0].Rows
	_ = append(first, -1)
	if got[1].Rows[0] != 3 {
		t.Fatalf("append to group %q overwrote group %q: %v", got[0].Key, got[1].Key, got[1].Rows)
	}
}

// TestPartitionCapCountsLiveCodes: the cap applies to the values a universe
// reaches, not to the dictionary — a column refused over the whole table is
// grouped inside a subset that touches few of its values, and codes the
// subset never reaches yield no (empty) group.
func TestPartitionCapCountsLiveCodes(t *testing.T) {
	col := &StringColumn{}
	for r := 0; r < 120; r++ {
		if err := col.append(string(rune('A' + r%60))); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := Partition(col, nil, 50); ok {
		t.Fatal("60 distinct values passed a cap of 50 over the whole column")
	}
	got, ok := Partition(col, []int{1, 2, 61, 62}, 50)
	want := []Group{{"B", []int{1, 61}}, {"C", []int{2, 62}}}
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("subset: ok=%t %v, want %v", ok, got, want)
	}
}

// TestPartitionIgnoresUnusedDictionaryEntries: a row refused half-way leaves
// its string in the dictionary with no row holding it; such an entry is
// neither a group nor counted against the cap.
func TestPartitionIgnoresUnusedDictionaryEntries(t *testing.T) {
	tbl := New("t", MustSchema(ColumnDef{Name: "s", Type: String}, ColumnDef{Name: "n", Type: Int}))
	if err := tbl.AppendRow("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow("b", "not an int"); err == nil {
		t.Fatal("ill-typed row accepted")
	}
	if err := tbl.AppendRow("c", 2); err != nil {
		t.Fatal(err)
	}
	got, ok := Partition(tbl.ColumnByName("s"), nil, 2)
	if want := []Group{{"a", []int{0}}, {"c", []int{1}}}; !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("ok=%t groups %v, want %v", ok, got, want)
	}
}
