package plan

import (
	"strings"
	"testing"
)

func baseSpec() Spec {
	return Spec{
		Table:         "loans",
		Rows:          3000,
		Preds:         []Pred{{UDF: "good_credit", Arg: "id", Want: true, Cost: 3}},
		Retrieve:      1,
		LabelFraction: 0.01,
		SampleNum:     2.25,
		VirtualName:   "virtual",
	}
}

func mustPhysical(t *testing.T, s Spec) *Node {
	t.Helper()
	n, err := Physical(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func chain(n *Node) []Op {
	var ops []Op
	for ; n != nil; n = n.Child() {
		ops = append(ops, n.Op)
	}
	return ops
}

func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPhysicalShapes(t *testing.T) {
	ap := &Approx{Alpha: 0.9, Beta: 0.9, Rho: 0.9}
	second := Pred{UDF: "rich", Arg: "income", Want: true, Cost: 3}
	third := Pred{UDF: "local", Arg: "state", Want: true, Cost: 3}

	cases := []struct {
		name string
		mut  func(*Spec)
		want []Op
	}{
		{"exact select", func(s *Spec) {}, []Op{OpExactEval, OpScan}},
		{"exact select filtered", func(s *Spec) {
			s.Filters = []Filter{{Column: "purpose", Value: "car"}}
		}, []Op{OpExactEval, OpFilter, OpScan}},
		{"approx pinned", func(s *Spec) {
			s.Approx = ap
			s.GroupOn = "grade"
		}, []Op{OpMerge, OpProbEval, OpSolve, OpSample, OpGroupResolve, OpScan}},
		{"approx discover", func(s *Spec) { s.Approx = ap },
			[]Op{OpMerge, OpProbEval, OpSolve, OpSample, OpGroupResolve, OpScan}},
		{"budget", func(s *Spec) {
			s.Approx = ap
			s.GroupOn = "grade"
			s.Budget = 500
		}, []Op{OpMerge, OpProbEval, OpSolve, OpSample, OpGroupResolve, OpScan}},
		{"exact conjunction", func(s *Spec) {
			s.Preds = append(s.Preds, second, third)
		}, []Op{OpConjWaves, OpScan}},
		{"two-pred approx", func(s *Spec) {
			s.Preds = append(s.Preds, second)
			s.Approx = ap
			s.GroupOn = "grade"
		}, []Op{OpMerge, OpConjExec, OpConjSolve, OpConjSample, OpGroupResolve, OpScan}},
		{"n-ary approx grouped", func(s *Spec) {
			s.Preds = append(s.Preds, second, third)
			s.Approx = ap
			s.GroupOn = "grade"
		}, []Op{OpConjWaves, OpConjSample, OpGroupResolve, OpScan}},
		{"n-ary approx ungrouped", func(s *Spec) {
			s.Preds = append(s.Preds, second, third)
			s.Approx = ap
		}, []Op{OpConjWaves, OpConjSample, OpScan}},
		{"join", func(s *Spec) {
			s.Approx = ap
			s.GroupOn = "grade"
			s.Join = &Join{Table: "orders", Rows: 9000, LeftKey: "id", RightKey: "loan_id"}
		}, []Op{OpMerge, OpProbEval, OpSolve, OpSample, OpJoinGroup, OpGroupResolve, OpScan}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := baseSpec()
			tc.mut(&s)
			got := chain(mustPhysical(t, s))
			if !opsEqual(got, tc.want) {
				t.Fatalf("chain %v, want %v", got, tc.want)
			}
		})
	}
}

func TestPhysicalModes(t *testing.T) {
	ap := &Approx{Alpha: 0.9, Beta: 0.9, Rho: 0.9}
	s := baseSpec()
	s.Approx = ap
	n := mustPhysical(t, s).Find(OpGroupResolve)
	if n == nil || n.Mode != ModeAuto {
		t.Fatalf("discover mode: %+v", n)
	}
	s.MemoColumn = "grade"
	n = mustPhysical(t, s).Find(OpGroupResolve)
	if n.Column != "grade" || n.Mode != ModeAuto {
		t.Fatalf("memo column not surfaced: %+v", n)
	}
	s.MemoColumn = ""
	s.GroupOn = "virtual"
	n = mustPhysical(t, s).Find(OpGroupResolve)
	if n.Mode != ModeVirtual {
		t.Fatalf("virtual mode: %+v", n)
	}
	s.GroupOn = "grade"
	n = mustPhysical(t, s).Find(OpGroupResolve)
	if n.Mode != ModePinned || n.Column != "grade" {
		t.Fatalf("pinned mode: %+v", n)
	}
	s.Budget = 100
	if sv := mustPhysical(t, s).Find(OpSolve); sv.Mode != ModeBudget {
		t.Fatalf("budget solve mode: %+v", sv)
	}
}

func TestSpecValidate(t *testing.T) {
	s := baseSpec()
	s.Table = ""
	if _, err := Physical(s); err == nil {
		t.Fatal("empty table accepted")
	}
	s = baseSpec()
	s.Preds = nil
	if _, err := Physical(s); err == nil {
		t.Fatal("no predicates accepted")
	}
	s = baseSpec()
	s.Preds = append(s.Preds, Pred{UDF: "rich", Arg: "income"})
	s.Join = &Join{Table: "orders", Rows: 1, LeftKey: "id", RightKey: "loan_id"}
	if _, err := Physical(s); err == nil {
		t.Fatal("join+conjunction accepted")
	}
}

// TestFormatGolden pins the EXPLAIN rendering of an approximate pinned
// query — the format is part of the public surface (predsqld returns it).
func TestFormatGolden(t *testing.T) {
	s := baseSpec()
	s.Approx = &Approx{Alpha: 0.9, Beta: 0.9, Rho: 0.9}
	s.GroupOn = "grade"
	s.Filters = []Filter{{Column: "purpose", Value: "car"}}
	got := Format(mustPhysical(t, s))
	// The golden is asserted line-by-line for readable failures.
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	wantLines := []string{
		`merge output=«row ids, ascending»`,
		`└─ prob-eval strategy=«per-group retrieve/evaluate coins»  (rows≈3000, cost≤10128)`,
		`   └─ solve[constrained] objective=«min cost s.t. α=0.9 β=0.9 ρ=0.9»`,
		`      └─ sample allocator=«two-third-power num=2.25»  (rows≈468, cost≈1872)`,
		`         └─ group-resolve[pinned] column=grade  (rows≈3000)`,
		`            └─ filter predicates=«purpose = "car"»  (rows≈3000)`,
		`               └─ scan table=loans  (rows≈3000)`,
	}
	if len(lines) != len(wantLines) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(wantLines), got)
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i, lines[i], wantLines[i])
		}
	}
}
