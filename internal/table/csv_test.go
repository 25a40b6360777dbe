package table

import (
	"bytes"
	"strings"
	"testing"
)

func mustReadCSV(t *testing.T, csv string) *Table {
	t.Helper()
	tbl, err := ReadCSV("t", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestInferTypesSkipsEmptyCells is the regression test for the inference
// bug: a single empty cell used to demote an otherwise-numeric column to
// String, breaking typed filters and grouping downstream.
func TestInferTypesSkipsEmptyCells(t *testing.T) {
	tbl := mustReadCSV(t, "id,score,name\n1,0.5,a\n,,b\n3,2.25,\n")
	sch := tbl.Schema()
	if got := sch.Col(0).Type; got != Int {
		t.Fatalf("id inferred %v, want Int", got)
	}
	if got := sch.Col(1).Type; got != Float {
		t.Fatalf("score inferred %v, want Float", got)
	}
	if got := sch.Col(2).Type; got != String {
		t.Fatalf("name inferred %v, want String", got)
	}
	// Empty cells load as the column's zero value.
	if v := tbl.Column(0).Value(1); v != int64(0) {
		t.Fatalf("empty int cell loaded %v (%T)", v, v)
	}
	if v := tbl.Column(1).Value(1); v != float64(0) {
		t.Fatalf("empty float cell loaded %v (%T)", v, v)
	}
	if v := tbl.Column(2).Value(2); v != "" {
		t.Fatalf("empty string cell loaded %q", v)
	}
	if v := tbl.Column(0).Value(2); v != int64(3) {
		t.Fatalf("row after empties loaded %v", v)
	}
}

// TestInferTypesRejectsNonFinite: "NaN"/"Inf" spellings parse as floats but
// must infer as String — they are text, and letting them through smuggles
// non-finite values into typed filters and grouping.
func TestInferTypesRejectsNonFinite(t *testing.T) {
	tbl := mustReadCSV(t, "a,b,c,d\n1.5,NaN,Inf,-Infinity\n2.5,2.0,3.0,4.0\n")
	sch := tbl.Schema()
	if got := sch.Col(0).Type; got != Float {
		t.Fatalf("finite column inferred %v, want Float", got)
	}
	for i := 1; i < 4; i++ {
		if got := sch.Col(i).Type; got != String {
			t.Fatalf("col %q inferred %v, want String", sch.Col(i).Name, got)
		}
	}
}

func TestInferTypesAllEmptyColumn(t *testing.T) {
	tbl := mustReadCSV(t, "id,blank\n1,\n2,\n")
	if got := tbl.Schema().Col(1).Type; got != String {
		t.Fatalf("all-empty column inferred %v, want String", got)
	}
}

func TestCSVRoundTripTypedValues(t *testing.T) {
	src := "id,grade,score\n1,A,0.5\n2,B,1.25\n3,A,-3\n"
	tbl := mustReadCSV(t, src)
	var buf bytes.Buffer
	if err := WriteCSV(tbl, &buf); err != nil {
		t.Fatal(err)
	}
	back := mustReadCSV(t, buf.String())
	if back.NumRows() != tbl.NumRows() || back.Schema().Len() != tbl.Schema().Len() {
		t.Fatalf("round trip shape %dx%d, want %dx%d",
			back.NumRows(), back.Schema().Len(), tbl.NumRows(), tbl.Schema().Len())
	}
	for i := 0; i < tbl.NumRows(); i++ {
		for j := 0; j < tbl.Schema().Len(); j++ {
			if got, want := back.CellString(i, j), tbl.CellString(i, j); got != want {
				t.Fatalf("cell (%d,%d) %q, want %q", i, j, got, want)
			}
			if got, want := back.Column(j).Value(i), tbl.Column(j).Value(i); got != want {
				t.Fatalf("value (%d,%d) %v, want %v", i, j, got, want)
			}
		}
	}
	// Types survive the round trip too.
	for j := 0; j < tbl.Schema().Len(); j++ {
		if got, want := back.Schema().Col(j).Type, tbl.Schema().Col(j).Type; got != want {
			t.Fatalf("col %d type %v, want %v", j, got, want)
		}
	}
}

func TestCSVRoundTripWithEmptyCells(t *testing.T) {
	// Empty numeric cells load as zero, render as "0", and stay numeric on
	// the second pass — a stable fixed point.
	tbl := mustReadCSV(t, "id,score\n1,0.5\n,\n3,1.5\n")
	var buf bytes.Buffer
	if err := WriteCSV(tbl, &buf); err != nil {
		t.Fatal(err)
	}
	back := mustReadCSV(t, buf.String())
	if got := back.Schema().Col(0).Type; got != Int {
		t.Fatalf("id re-inferred %v, want Int", got)
	}
	if v := back.Column(0).Value(1); v != int64(0) {
		t.Fatalf("empty id round-tripped to %v", v)
	}
}

// FuzzReadCSV reads arbitrary bytes as a CSV table. ReadCSV must not
// panic, and for any input it accepts, WriteCSV's output must read back
// and be a fixed point of read-then-write.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("id,grade,score\n1,A,0.5\n2,B,1.25\n3,A,-3\n"))
	f.Add([]byte("id,score\n1,0.5\n,\n3,1.5\n"))
	f.Add([]byte("id,blank\n1,\n2,\n"))
	f.Add([]byte("a,b\n\"x,\"\"y\"\"\",NaN\n\"line\r\nbreak\",Inf\n"))
	f.Add([]byte("n\n9223372036854775807\n-9223372036854775808\n1e300\n"))
	f.Add([]byte("id,id\n1,2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := ReadCSV("t", bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteCSV(tbl, &first); err != nil {
			t.Fatalf("WriteCSV of an accepted table: %v", err)
		}
		back, err := ReadCSV("t", bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("WriteCSV's output %q does not read back: %v", first.Bytes(), err)
		}
		if err := WriteCSV(back, &second); err != nil {
			t.Fatalf("WriteCSV of the re-read table: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("read-then-write is not a fixed point:\n first %q\nsecond %q", first.Bytes(), second.Bytes())
		}
	})
}
