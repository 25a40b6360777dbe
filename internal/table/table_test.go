package table

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	s := MustSchema(
		ColumnDef{Name: "id", Type: Int},
		ColumnDef{Name: "grade", Type: String},
		ColumnDef{Name: "income", Type: Float},
	)
	tbl := New("loans", s)
	rows := []struct {
		id     int64
		grade  string
		income float64
	}{
		{1, "A", 90000.5}, {2, "A", 85000}, {3, "B", 60000},
		{4, "C", 30000}, {5, "B", 55000}, {6, "A", 120000},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r.id, r.grade, r.income); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestSchemaBasics(t *testing.T) {
	s := MustSchema(ColumnDef{Name: "a", Type: Int}, ColumnDef{Name: "b", Type: String})
	if s.Len() != 2 {
		t.Fatalf("len %d", s.Len())
	}
	if s.Lookup("b") != 1 || s.Lookup("missing") != -1 {
		t.Fatal("Lookup misbehaves")
	}
	if got := s.String(); got != "a:int, b:string" {
		t.Fatalf("schema string %q", got)
	}
	if names := s.Names(); names[0] != "a" || names[1] != "b" {
		t.Fatalf("names %v", names)
	}
}

func TestSchemaRejectsDuplicatesAndEmpty(t *testing.T) {
	if _, err := NewSchema(ColumnDef{Name: "x", Type: Int}, ColumnDef{Name: "x", Type: Int}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := NewSchema(ColumnDef{Name: "", Type: Int}); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestAppendAndRead(t *testing.T) {
	tbl := sampleTable(t)
	if tbl.NumRows() != 6 {
		t.Fatalf("rows %d", tbl.NumRows())
	}
	ic, err := tbl.IntColumn("id")
	if err != nil {
		t.Fatal(err)
	}
	if ic.At(2) != 3 {
		t.Fatalf("id[2] = %d", ic.At(2))
	}
	sc, err := tbl.StringColumn("grade")
	if err != nil {
		t.Fatal(err)
	}
	if sc.At(3) != "C" {
		t.Fatalf("grade[3] = %s", sc.At(3))
	}
	if sc.Cardinality() != 3 {
		t.Fatalf("cardinality %d", sc.Cardinality())
	}
	fc, err := tbl.FloatColumn("income")
	if err != nil {
		t.Fatal(err)
	}
	if fc.At(5) != 120000 {
		t.Fatalf("income[5] = %v", fc.At(5))
	}
	row := tbl.Row(0)
	if row[0].(int64) != 1 || row[1].(string) != "A" || row[2].(float64) != 90000.5 {
		t.Fatalf("row %v", row)
	}
}

func TestAppendTypeErrors(t *testing.T) {
	s := MustSchema(ColumnDef{Name: "a", Type: Int}, ColumnDef{Name: "b", Type: Float})
	tbl := New("t", s)
	if err := tbl.AppendRow("oops", 1.0); err == nil {
		t.Fatal("string into int column accepted")
	}
	if tbl.NumRows() != 0 {
		t.Fatal("failed append should not change row count")
	}
	// Second column failure must roll back the first column's append.
	if err := tbl.AppendRow(int64(1), "oops"); err == nil {
		t.Fatal("string into float column accepted")
	}
	if err := tbl.AppendRow(int64(1), 2.0); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 1 {
		t.Fatalf("rows %d", tbl.NumRows())
	}
	ic, _ := tbl.IntColumn("a")
	if ic.Len() != 1 {
		t.Fatalf("int column misaligned: len %d", ic.Len())
	}
}

func TestAppendArityError(t *testing.T) {
	tbl := sampleTable(t)
	if err := tbl.AppendRow(int64(9)); err == nil {
		t.Fatal("short row accepted")
	}
}

func TestIntCoercionIntoFloat(t *testing.T) {
	s := MustSchema(ColumnDef{Name: "x", Type: Float})
	tbl := New("t", s)
	if err := tbl.AppendRow(7); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(int64(8)); err != nil {
		t.Fatal(err)
	}
	fc, _ := tbl.FloatColumn("x")
	if fc.At(0) != 7 || fc.At(1) != 8 {
		t.Fatalf("coercion failed: %v", fc.Data())
	}
}

func TestColumnTypeMismatchAccessors(t *testing.T) {
	tbl := sampleTable(t)
	if _, err := tbl.IntColumn("grade"); err == nil {
		t.Fatal("IntColumn on string column should error")
	}
	if _, err := tbl.FloatColumn("id"); err == nil {
		t.Fatal("FloatColumn on int column should error")
	}
	if _, err := tbl.StringColumn("income"); err == nil {
		t.Fatal("StringColumn on float column should error")
	}
	if _, err := tbl.IntColumn("nope"); err == nil {
		t.Fatal("missing column should error")
	}
}

func TestStringColumnInterning(t *testing.T) {
	s := MustSchema(ColumnDef{Name: "g", Type: String})
	tbl := New("t", s)
	for i := 0; i < 100; i++ {
		val := "even"
		if i%2 == 1 {
			val = "odd"
		}
		if err := tbl.AppendRow(val); err != nil {
			t.Fatal(err)
		}
	}
	sc, _ := tbl.StringColumn("g")
	if sc.Cardinality() != 2 {
		t.Fatalf("cardinality %d", sc.Cardinality())
	}
	if sc.Code(0) != sc.Code(2) || sc.Code(0) == sc.Code(1) {
		t.Fatal("dictionary codes inconsistent")
	}
	if len(sc.dict) != 2 {
		t.Fatalf("dict %v", sc.dict)
	}
}

func TestGroupIndex(t *testing.T) {
	tbl := sampleTable(t)
	idx, err := BuildGroupIndex(tbl, "grade")
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumGroups() != 3 {
		t.Fatalf("groups %d", idx.NumGroups())
	}
	if got := idx.Keys(); got[0] != "A" || got[1] != "B" || got[2] != "C" {
		t.Fatalf("keys %v", got)
	}
	if rows := idx.Rows("A"); len(rows) != 3 {
		t.Fatalf("A rows %v", rows)
	}
	if rows := idx.Rows("C"); len(rows) != 1 || rows[0] != 3 {
		t.Fatalf("C rows %v", rows)
	}
	sizes := idx.GroupSizes()
	if sizes[0] != 3 || sizes[1] != 2 || sizes[2] != 1 {
		t.Fatalf("sizes %v", sizes)
	}
	if idx.Column() != "grade" {
		t.Fatalf("column %s", idx.Column())
	}
}

func TestGroupIndexIntColumn(t *testing.T) {
	s := MustSchema(ColumnDef{Name: "bucket", Type: Int})
	tbl := New("t", s)
	for i := 0; i < 10; i++ {
		if err := tbl.AppendRow(int64(i % 3)); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := BuildGroupIndex(tbl, "bucket")
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumGroups() != 3 {
		t.Fatalf("groups %d", idx.NumGroups())
	}
	if sizes := idx.GroupSizes(); sizes[0]+sizes[1]+sizes[2] != 10 {
		t.Fatalf("sizes %v", sizes)
	}
}

func TestGroupIndexMissingColumn(t *testing.T) {
	tbl := sampleTable(t)
	if _, err := BuildGroupIndex(tbl, "nope"); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestGroupIndexPartition(t *testing.T) {
	// Property: groups partition the row ids exactly.
	f := func(codes []uint8) bool {
		s := MustSchema(ColumnDef{Name: "g", Type: Int})
		tbl := New("t", s)
		for _, c := range codes {
			if err := tbl.AppendRow(int64(c % 7)); err != nil {
				return false
			}
		}
		idx, err := BuildGroupIndex(tbl, "g")
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		for _, k := range idx.Keys() {
			for _, r := range idx.Rows(k) {
				if seen[r] {
					return false
				}
				seen[r] = true
			}
		}
		return len(seen) == len(codes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := sampleTable(t)
	var buf strings.Builder
	if err := WriteCSV(tbl, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("loans", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tbl.NumRows() {
		t.Fatalf("rows %d want %d", got.NumRows(), tbl.NumRows())
	}
	for i := 0; i < tbl.NumRows(); i++ {
		for j := 0; j < tbl.Schema().Len(); j++ {
			if got.CellString(i, j) != tbl.CellString(i, j) {
				t.Fatalf("cell (%d,%d): %q vs %q", i, j, got.CellString(i, j), tbl.CellString(i, j))
			}
		}
	}
	// Types should be inferred back.
	if got.Schema().Col(0).Type != Int || got.Schema().Col(1).Type != String || got.Schema().Col(2).Type != Float {
		t.Fatalf("inferred schema %s", got.Schema())
	}
}

func TestCSVTypeInference(t *testing.T) {
	in := "a,b,c\n1,1.5,x\n2,2,y\n"
	tbl, err := ReadCSV("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Schema().Col(0).Type != Int {
		t.Fatal("col a should be int")
	}
	if tbl.Schema().Col(1).Type != Float {
		t.Fatal("col b should be float")
	}
	if tbl.Schema().Col(2).Type != String {
		t.Fatal("col c should be string")
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader("")); err == nil {
		t.Fatal("empty csv accepted")
	}
	// Ragged rows are rejected by encoding/csv.
	if _, err := ReadCSV("t", strings.NewReader("a,b\n1\n")); err == nil {
		t.Fatal("ragged csv accepted")
	}
}

func TestCSVHeaderOnly(t *testing.T) {
	tbl, err := ReadCSV("t", strings.NewReader("a,b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 0 {
		t.Fatalf("rows %d", tbl.NumRows())
	}
	if tbl.Schema().Col(0).Type != String {
		t.Fatal("empty body should default to string columns")
	}
}

func TestTypeString(t *testing.T) {
	if Int.String() != "int" || Float.String() != "float" || String.String() != "string" {
		t.Fatal("type strings wrong")
	}
	if Type(9).String() != "invalid" {
		t.Fatal("invalid type string wrong")
	}
}

func TestGroupKeyAndCellString(t *testing.T) {
	tbl := sampleTable(t)
	if key := tbl.Column(1).StringAt(0); key != "A" {
		t.Fatalf("group key %s", key)
	}
	if tbl.CellString(0, 0) != "1" {
		t.Fatalf("cell string %s", tbl.CellString(0, 0))
	}
}

// TestPostings checks the posting cache: lists agree with the column, a
// list is shared once built, an append invalidates it, and literals no cell
// renders as, or unknown columns, are answered without a list.
func TestPostings(t *testing.T) {
	tbl := sampleTable(t)
	rows, err := tbl.Postings("grade", "A")
	if err != nil || !slices.Equal(rows, []int32{0, 1, 5}) {
		t.Fatalf("Postings(grade, A) = %v, %v", rows, err)
	}
	if again, _ := tbl.Postings("grade", "A"); &again[0] != &rows[0] {
		t.Fatal("a built list was rebuilt instead of read from the cache")
	}
	if rows, _ := tbl.Postings("income", "85000"); !slices.Equal(rows, []int32{1}) {
		t.Fatalf("Postings(income, 85000) = %v", rows)
	}
	for _, lit := range []string{"Z", "85000.0", "8.5e4"} {
		for _, col := range []string{"grade", "income"} {
			if rows, err := tbl.Postings(col, lit); err != nil || len(rows) != 0 {
				t.Fatalf("Postings(%s, %q) = %v, %v; want none", col, lit, rows, err)
			}
		}
	}
	if _, err := tbl.Postings("nope", "A"); err == nil {
		t.Fatal("unknown column accepted")
	}
	if err := tbl.AppendRow(int64(7), "A", 1.0); err != nil {
		t.Fatal(err)
	}
	if rows, _ := tbl.Postings("grade", "A"); !slices.Equal(rows, []int32{0, 1, 5, 6}) {
		t.Fatalf("after an append, Postings(grade, A) = %v", rows)
	}
	if rows, _ := tbl.Postings("id", "7"); !slices.Equal(rows, []int32{6}) {
		t.Fatalf("after an append, Postings(id, 7) = %v", rows)
	}
}

// TestPostingsCacheOnlyPresentValues names many values no row holds — well
// formed and not — and checks that none of them adds a cache entry: the
// cache grows with the values the table holds, not with what statements
// ask for.
func TestPostingsCacheOnlyPresentValues(t *testing.T) {
	tbl := sampleTable(t)
	for _, lit := range []string{"1", "A", "85000"} {
		for _, col := range []string{"id", "grade", "income"} {
			if _, err := tbl.Postings(col, lit); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := len(tbl.postings)
	if before == 0 {
		t.Fatal("present values were not cached")
	}
	for i := 0; i < 1000; i++ {
		for _, col := range []string{"id", "grade", "income"} {
			for _, lit := range []string{strconv.Itoa(1000 + i), "Q" + strconv.Itoa(i), "0" + strconv.Itoa(i)} {
				if rows, err := tbl.Postings(col, lit); err != nil || len(rows) != 0 {
					t.Fatalf("Postings(%s, %q) = %v, %v; want none", col, lit, rows, err)
				}
			}
		}
	}
	if after := len(tbl.postings); after != before {
		t.Fatalf("absent values grew the cache from %d to %d entries", before, after)
	}
}

// TestPostingsConcurrent has concurrent statements share one table's
// posting cache, built outside its lock: whichever goroutine builds a list,
// every goroutine reads the same rows (run under -race).
func TestPostingsConcurrent(t *testing.T) {
	tbl := New("t", MustSchema(ColumnDef{Name: "k", Type: Int}, ColumnDef{Name: "s", Type: String}))
	for i := 0; i < 1000; i++ {
		if err := tbl.AppendRow(int64(i%10), strconv.Itoa(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 0; v < 10; v++ {
				col, lit := "k", strconv.Itoa((v+g)%10)
				if g%2 == 1 {
					col, lit = "s", strconv.Itoa((v+g)%7)
				}
				rows, err := tbl.Postings(col, lit)
				if err != nil {
					errs <- err
					return
				}
				for _, r := range rows {
					if got := tbl.ColumnByName(col).StringAt(int(r)); got != lit {
						errs <- fmt.Errorf("%s=%s: row %d holds %s", col, lit, r, got)
						return
					}
				}
				if want := map[string]int{"k": 100, "s": 142}[col]; len(rows) < want {
					errs <- fmt.Errorf("%s=%s: %d rows, want at least %d", col, lit, len(rows), want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
