package table

import (
	"strings"
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
