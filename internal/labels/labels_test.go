package labels

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoad(t *testing.T) {
	m, err := Load(strings.NewReader("id,label\n0,1\n1,0\n2,true\n3,TRUE\n4,0\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]bool{0: true, 1: false, 2: true, 3: true, 4: false}
	if len(m) != len(want) {
		t.Fatalf("got %d labels", len(m))
	}
	for id, v := range want {
		if m[id] != v {
			t.Fatalf("label[%d] = %v, want %v", id, m[id], v)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("id\n0\n")); err == nil {
		t.Fatal("single-column labels accepted")
	}
	if _, err := Load(strings.NewReader("id,label\nxyz,1\n")); err == nil {
		t.Fatal("non-numeric id accepted")
	}
	if _, err := LoadFile("/no/such/file"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.csv")
	if err := os.WriteFile(path, []byte("id,label\n7,1\n8,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !m[7] || m[8] {
		t.Fatalf("labels %v", m)
	}
}

// TestPredicateIDTypes is the regression test for the silent-wrong-answer
// bug: the simulated UDF used to do v.(int64) and answer false for every
// row when the id column inferred as Float or String.
func TestPredicateIDTypes(t *testing.T) {
	pred := Predicate(map[int64]bool{3: true, 4: false})
	if !pred(int64(3)) || pred(int64(4)) || pred(int64(99)) {
		t.Fatal("int64 ids mishandled")
	}
	if !pred(float64(3)) || pred(float64(4)) {
		t.Fatal("integral float ids mishandled")
	}
	if !pred("3") || pred("4") || !pred(" 3 ") {
		t.Fatal("string ids mishandled")
	}
}

func TestPredicateFaultsOnBadIDs(t *testing.T) {
	pred := Predicate(map[int64]bool{1: true})
	for name, v := range map[string]any{
		"non-integral float": 1.5,
		"overflowing float":  1e20, // int64(1e20) is implementation-defined
		"non-numeric string": "abc",
		"unsupported type":   []byte("1"),
		"nil":                nil,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic — would silently drop the row", name)
				}
			}()
			pred(v)
		}()
	}
}

// FuzzLoad reads arbitrary bytes as a labels file: Load must not panic,
// and each input is either an error or a map.
func FuzzLoad(f *testing.F) {
	f.Add([]byte("id,label\n0,1\n1,0\n2,true\n3,TRUE\n4,0\n"))
	f.Add([]byte("id\n0\n"))
	f.Add([]byte("id,label\nxyz,1\n"))
	f.Add([]byte("id,label,extra\n-9223372036854775808,\"tr\"\"ue\",x\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if (err == nil) == (m == nil) {
			t.Fatalf("Load returned map %v and error %v: want exactly one", m, err)
		}
	})
}
