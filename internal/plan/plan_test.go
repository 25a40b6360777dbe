package plan

import (
	"strings"
	"testing"
)

func baseSpec() Spec {
	return Spec{
		Query:        Query{Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}}},
		Rows:         3000,
		FilteredRows: 3000,
		EvalCosts:    []float64{3},
	}
}

// and appends expensive predicates (o_e = 3 each) to the spec.
func (s *Spec) and(preds ...Conjunct) {
	s.Query.Predicates = append(s.Query.Predicates, preds...)
	for range preds {
		s.EvalCosts = append(s.EvalCosts, 3)
	}
}

func mustPhysical(t *testing.T, s Spec) Chain {
	t.Helper()
	n, err := Physical(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// ops lists a chain's operators from the finisher down to the scan, the
// order EXPLAIN prints them in.
func ops(c Chain) []Op {
	var ops []Op
	for i := len(c) - 1; i >= 0; i-- {
		ops = append(ops, c[i].Op)
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
	ap := &Approx{Precision: 0.9, Recall: 0.9, Probability: 0.9}
	second := Conjunct{UDFName: "rich", UDFArg: "income", Want: true}
	third := Conjunct{UDFName: "local", UDFArg: "state", Want: true}

	cases := []struct {
		name string
		mut  func(*Spec)
		want []Op
	}{
		{"exact select", func(s *Spec) {}, []Op{OpExactEval, OpScan}},
		{"exact select filtered", func(s *Spec) {
			s.Query.Filters = []Filter{{Column: "purpose", Value: "car"}}
		}, []Op{OpExactEval, OpFilter, OpScan}},
		{"approx pinned", func(s *Spec) {
			s.Query.Approx = ap
			s.Query.GroupOn = "grade"
		}, []Op{OpMerge, OpProbEval, OpSolve, OpSample, OpGroupResolve, OpScan}},
		{"approx discover", func(s *Spec) { s.Query.Approx = ap },
			[]Op{OpMerge, OpProbEval, OpSolve, OpSample, OpGroupResolve, OpScan}},
		{"budget", func(s *Spec) {
			s.Query.Approx = ap
			s.Query.GroupOn = "grade"
			s.Query.Budget = 500
		}, []Op{OpMerge, OpProbEval, OpSolve, OpSample, OpGroupResolve, OpScan}},
		{"exact conjunction", func(s *Spec) {
			s.and(second, third)
		}, []Op{OpConjWaves, OpScan}},
		{"two-pred approx", func(s *Spec) {
			s.and(second)
			s.Query.Approx = ap
			s.Query.GroupOn = "grade"
		}, []Op{OpMerge, OpConjExec, OpConjSolve, OpConjSample, OpGroupResolve, OpScan}},
		{"n-ary approx grouped", func(s *Spec) {
			s.and(second, third)
			s.Query.Approx = ap
			s.Query.GroupOn = "grade"
		}, []Op{OpConjWaves, OpConjSample, OpGroupResolve, OpScan}},
		{"n-ary approx ungrouped", func(s *Spec) {
			s.and(second, third)
			s.Query.Approx = ap
		}, []Op{OpConjWaves, OpConjSample, OpScan}},
		{"join", func(s *Spec) {
			s.Query.Approx = ap
			s.Query.GroupOn = "grade"
			s.Query.Join = &Join{Table: "orders", LeftKey: "id", RightKey: "loan_id"}
			s.JoinRows = 9000
		}, []Op{OpMerge, OpProbEval, OpSolve, OpSample, OpJoinGroup, OpGroupResolve, OpScan}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := baseSpec()
			tc.mut(&s)
			got := ops(mustPhysical(t, s))
			if !opsEqual(got, tc.want) {
				t.Fatalf("chain %v, want %v", got, tc.want)
			}
		})
	}
}

func TestPhysicalModes(t *testing.T) {
	s := baseSpec()
	s.Query.Approx = &Approx{Precision: 0.9, Recall: 0.9, Probability: 0.9}
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
	s.Query.GroupOn = VirtualColumn
	n = mustPhysical(t, s).Find(OpGroupResolve)
	if n.Mode != ModeVirtual {
		t.Fatalf("virtual mode: %+v", n)
	}
	s.Query.GroupOn = "grade"
	n = mustPhysical(t, s).Find(OpGroupResolve)
	if n.Mode != ModePinned || n.Column != "grade" {
		t.Fatalf("pinned mode: %+v", n)
	}
	s.Query.Budget = 100
	if sv := mustPhysical(t, s).Find(OpSolve); sv.Mode != ModeBudget {
		t.Fatalf("budget solve mode: %+v", sv)
	}
}

// TestSpecValidate: Physical refuses what Query.Validate refuses (there is
// no second validator), and a spec whose costs do not line up with its
// predicates.
func TestSpecValidate(t *testing.T) {
	s := baseSpec()
	s.Query.Table = ""
	if _, err := Physical(s); err == nil {
		t.Fatal("empty table accepted")
	}
	s = baseSpec()
	s.Query.Predicates = nil
	if _, err := Physical(s); err == nil {
		t.Fatal("no predicates accepted")
	}
	s = baseSpec()
	s.Query.Predicates[0].UDFName = ""
	if _, err := Physical(s); err == nil {
		t.Fatal("empty predicate accepted")
	}
	s = baseSpec()
	s.and(Conjunct{UDFName: "rich", UDFArg: "income"})
	s.Query.Approx = &Approx{Precision: 0.9, Recall: 0.9, Probability: 0.9}
	s.Query.GroupOn = "grade"
	s.Query.Join = &Join{Table: "orders", LeftKey: "id", RightKey: "loan_id"}
	if _, err := Physical(s); err == nil {
		t.Fatal("join+conjunction accepted")
	}
	s = baseSpec()
	s.Query.Predicates = append(s.Query.Predicates, Conjunct{UDFName: "rich", UDFArg: "income"})
	if _, err := Physical(s); err == nil {
		t.Fatal("two predicates with one cost accepted")
	}
}

// TestFormatGolden pins the EXPLAIN rendering of an approximate pinned
// query — the format is part of the public surface (predsqld returns it).
// Every node above the filter is estimated over the rows it keeps.
func TestFormatGolden(t *testing.T) {
	s := baseSpec()
	s.Query.Approx = &Approx{Precision: 0.9, Recall: 0.9, Probability: 0.9}
	s.Query.GroupOn = "grade"
	s.Query.Filters = []Filter{{Column: "purpose", Value: "car"}}
	s.FilteredRows = 1200
	got := Format(mustPhysical(t, s))
	// The golden is asserted line-by-line for readable failures.
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	wantLines := []string{
		`merge output=«row ids, ascending»`,
		`└─ prob-eval strategy=«per-group retrieve/evaluate coins»  (rows≈1200, cost≤3784)`,
		`   └─ solve[constrained] objective=«min cost s.t. α=0.9 β=0.9 ρ=0.9»`,
		`      └─ sample allocator=«two-third-power num=2.25»  (rows≈254, cost≈1016)`,
		`         └─ group-resolve[pinned] column=grade  (rows≈1200)`,
		`            └─ filter predicates=«purpose = "car"»  (rows≈1200)`,
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
