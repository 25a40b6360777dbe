package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func paperGroups() []GroupInfo {
	// Example 3.3: three groups of 1000 tuples with selectivities
	// 0.9 / 0.5 / 0.1.
	return []GroupInfo{
		{Size: 1000, Selectivity: 0.9},
		{Size: 1000, Selectivity: 0.5},
		{Size: 1000, Selectivity: 0.1},
	}
}

func paperCons() Constraints { return Constraints{Alpha: 0.9, Beta: 0.9, Rho: 0.9} }

func TestPlanPerfectSelectivitiesPaperExample(t *testing.T) {
	s, err := PlanPerfectSelectivities(paperGroups(), paperCons(), DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !CheckPerfectSelectivityFeasible(paperGroups(), s, paperCons()) {
		t.Fatal("plan violates its own LP constraints")
	}
	// The highest-selectivity group should be fully retrieved and mostly
	// unevaluated; the lowest-selectivity group mostly discarded.
	if s.R[0] != 1 {
		t.Fatalf("R[0] = %v, want 1", s.R[0])
	}
	if s.R[2] > 0.3 {
		t.Fatalf("R[2] = %v, expected mostly discarded", s.R[2])
	}
	if s.E[0] > 0.2 {
		t.Fatalf("E[0] = %v, expected mostly unevaluated", s.E[0])
	}
	// Far cheaper than evaluating everything (cost 3000·4 = 12000).
	cost := s.ExpectedCost(paperGroups(), DefaultCost)
	if cost >= 9000 {
		t.Fatalf("plan cost %v, expected substantial savings", cost)
	}
}

func TestPlanPerfectSelectivitiesFeasibilityProperty(t *testing.T) {
	r := stats.NewRNG(201)
	f := func(seed uint32) bool {
		rr := stats.NewRNG(uint64(seed) ^ r.Uint64())
		n := 2 + rr.IntN(8)
		groups := make([]GroupInfo, n)
		for i := range groups {
			groups[i] = GroupInfo{
				Size:        100 + rr.IntN(3000),
				Selectivity: rr.Float64(),
			}
		}
		cons := Constraints{
			Alpha: 0.3 + 0.65*rr.Float64(),
			Beta:  0.3 + 0.65*rr.Float64(),
			Rho:   0.5 + 0.45*rr.Float64(),
		}
		s, err := PlanPerfectSelectivities(groups, cons, DefaultCost)
		if err != nil {
			return false
		}
		if err := s.Validate(); err != nil {
			return false
		}
		return CheckPerfectSelectivityFeasible(groups, s, cons)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanCostMonotoneInBeta(t *testing.T) {
	// With a low precision bound the precision constraint never binds, so
	// cost is driven purely by the recall target and must be monotone.
	// (With a binding precision constraint, cost need not be monotone in β:
	// retrieving more high-selectivity mass can satisfy the precision
	// margin for free and remove evaluations.)
	groups := paperGroups()
	prev := -1.0
	for _, beta := range []float64{0.2, 0.4, 0.6, 0.8, 0.95} {
		s, err := PlanPerfectSelectivities(groups, Constraints{Alpha: 0.2, Beta: beta, Rho: 0.8}, DefaultCost)
		if err != nil {
			t.Fatal(err)
		}
		c := s.ExpectedCost(groups, DefaultCost)
		if c < prev-1e-6 {
			t.Fatalf("cost decreased from %v to %v at beta=%v", prev, c, beta)
		}
		prev = c
	}
}

func TestPlanCostMonotoneInAlpha(t *testing.T) {
	groups := paperGroups()
	prev := -1.0
	for _, alpha := range []float64{0.2, 0.4, 0.6, 0.8, 0.95} {
		s, err := PlanPerfectSelectivities(groups, Constraints{Alpha: alpha, Beta: 0.8, Rho: 0.8}, DefaultCost)
		if err != nil {
			t.Fatal(err)
		}
		c := s.ExpectedCost(groups, DefaultCost)
		if c < prev-1e-6 {
			t.Fatalf("cost decreased from %v to %v at alpha=%v", prev, c, alpha)
		}
		prev = c
	}
}

func TestPlanZeroSelectivityGroupDiscarded(t *testing.T) {
	groups := []GroupInfo{
		{Size: 1000, Selectivity: 0.9},
		{Size: 1000, Selectivity: 0},
	}
	s, err := PlanPerfectSelectivities(groups, Constraints{Alpha: 0.5, Beta: 0.5, Rho: 0.8}, DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	if s.R[1] != 0 {
		t.Fatalf("zero-selectivity group retrieved: R[1]=%v", s.R[1])
	}
}

func TestPlanDegenerateInputs(t *testing.T) {
	if _, err := PlanPerfectSelectivities(nil, paperCons(), DefaultCost); err == nil {
		t.Fatal("empty groups accepted")
	}
	if _, err := PlanPerfectSelectivities(paperGroups(), Constraints{Alpha: 2}, DefaultCost); err == nil {
		t.Fatal("invalid alpha accepted")
	}
	if _, err := PlanPerfectSelectivities(paperGroups(), paperCons(), CostModel{Retrieve: -1}); err == nil {
		t.Fatal("negative cost accepted")
	}
	bad := []GroupInfo{{Size: -1, Selectivity: 0.5}}
	if _, err := PlanPerfectSelectivities(bad, paperCons(), DefaultCost); err == nil {
		t.Fatal("negative size accepted")
	}
}

// TestPlanSatisfiesConstraintsEmpirically is the core correctness check:
// run the planned strategy many times against a synthetic ground truth and
// decide, by stats.ContractHolds, that precision and recall each hold in at
// least ρ of runs.
func TestPlanSatisfiesConstraintsEmpirically(t *testing.T) {
	rng := stats.NewRNG(2024)
	groups, labels, truth := syntheticGroups(rng, []int{1000, 1000, 1000}, []float64{0.9, 0.5, 0.1})
	infos := exactInfos(groups, labels)
	cons := Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	s, err := PlanPerfectSelectivities(infos, cons, DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	totalCorrect := 0
	for _, v := range labels {
		if v {
			totalCorrect++
		}
	}
	const runs = 420
	okP, okR := 0, 0
	for i := 0; i < runs; i++ {
		exec, err := ExecuteParallelCtx(context.Background(), groups, s, nil, NewMeter(UDFFunc(truth)), DefaultCost, rng.Split(), 1)
		if err != nil {
			t.Fatal(err)
		}
		m := ComputeMetrics(exec.Output, truth, totalCorrect)
		pOK, rOK := m.Satisfies(cons)
		if pOK {
			okP++
		}
		if rOK {
			okR++
		}
	}
	if !stats.ContractHolds(okP, runs, cons.Rho, stats.ContractSignificance) ||
		!stats.ContractHolds(okR, runs, cons.Rho, stats.ContractSignificance) {
		t.Fatalf("precision met in %d, recall in %d of %d runs (ρ=%v)", okP, okR, runs, cons.Rho)
	}
}

// syntheticGroups builds groups with exact per-group selectivities: group i
// has sizes[i] rows of which round(sel[i]·size) are correct. Returns the
// groups, the label array indexed by row id, and a truth function.
func syntheticGroups(rng *stats.RNG, sizes []int, sel []float64) ([]Group, []bool, func(int) bool) {
	total := 0
	for _, s := range sizes {
		total += s
	}
	labels := make([]bool, total)
	groups := make([]Group, len(sizes))
	row := 0
	for gi, size := range sizes {
		rows := make([]int, size)
		correct := int(math.Round(sel[gi] * float64(size)))
		for k := 0; k < size; k++ {
			rows[k] = row
			labels[row] = k < correct
			row++
		}
		// Shuffle within the group so sampling order is not label-ordered.
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		groups[gi] = Group{Key: string(rune('A' + gi)), Rows: rows}
	}
	truth := func(r int) bool { return labels[r] }
	return groups, labels, truth
}

// exactInfos derives exact GroupInfo (true selectivities) from labels.
func exactInfos(groups []Group, labels []bool) []GroupInfo {
	infos := make([]GroupInfo, len(groups))
	for i, g := range groups {
		correct := 0
		for _, r := range g.Rows {
			if labels[r] {
				correct++
			}
		}
		sel := 0.0
		if len(g.Rows) > 0 {
			sel = float64(correct) / float64(len(g.Rows))
		}
		infos[i] = GroupInfo{Size: len(g.Rows), Selectivity: sel}
	}
	return infos
}

func TestStrategyHelpers(t *testing.T) {
	s := NewStrategy(2)
	s.R[0], s.E[0] = 1, 0.5
	groups := []GroupInfo{{Size: 100, Selectivity: 0.5}, {Size: 200, Selectivity: 0.2}}
	if c := s.ExpectedCost(groups, DefaultCost); math.Abs(c-(100*1+100*0.5*3)) > 1e-9 {
		t.Fatalf("cost %v", c)
	}
	clone := s.Clone()
	clone.R[0] = 0
	if s.R[0] != 1 {
		t.Fatal("Clone aliases storage")
	}
	full := FullEvaluation(2)
	if full.R[1] != 1 || full.E[1] != 1 {
		t.Fatal("FullEvaluation wrong")
	}
	bad := Strategy{R: []float64{0.5}, E: []float64{0.7}}
	if err := bad.Validate(); err == nil {
		t.Fatal("E > R accepted")
	}
	mismatched := Strategy{R: []float64{1}, E: []float64{}}
	if err := mismatched.Validate(); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestGroupInfoFromSample(t *testing.T) {
	g := GroupInfoFromSample(1000, 100, 90)
	if math.Abs(g.Selectivity-91.0/102.0) > 1e-12 {
		t.Fatalf("selectivity %v", g.Selectivity)
	}
	wantVar := g.Selectivity * (1 - g.Selectivity) / 103
	if math.Abs(g.Variance-wantVar) > 1e-12 {
		t.Fatalf("variance %v want %v", g.Variance, wantVar)
	}
	if g.Remaining() != 900 {
		t.Fatalf("remaining %d", g.Remaining())
	}
}

func TestGroupInfoValidate(t *testing.T) {
	cases := []GroupInfo{
		{Size: -1},
		{Size: 10, Selectivity: 1.5},
		{Size: 10, Selectivity: 0.5, Variance: -1},
		{Size: 10, Selectivity: 0.5, Sampled: 11},
		{Size: 10, Selectivity: 0.5, Sampled: 5, SampledPositive: 6},
	}
	for i, g := range cases {
		if err := g.Validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, g)
		}
	}
	good := GroupInfo{Size: 10, Selectivity: 0.5, Variance: 0.01, Sampled: 5, SampledPositive: 3}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMeterMemoizes(t *testing.T) {
	calls := 0
	m := NewMeter(UDFFunc(func(row int) bool {
		calls++
		return row%2 == 0
	}))
	if !m.Eval(2) || m.Eval(3) {
		t.Fatal("meter changes UDF semantics")
	}
	m.Eval(2)
	m.Eval(2)
	if m.Calls() != 2 || calls != 2 {
		t.Fatalf("calls %d / %d, want 2", m.Calls(), calls)
	}
	if v, known := m.Known(2); !known || !v {
		t.Fatal("Known(2) wrong")
	}
	if _, known := m.Known(99); known {
		t.Fatal("Known(99) should be unknown")
	}
}

// TestPlanInvariantToGroupOrder: groups with equal posteriors are
// exchangeable, so listing the groups in another order permutes the plan
// and changes nothing else. (Filling tied groups in list order made the
// plan depend on the group keys: in a world whose keys sort by true
// selectivity, the retrieved ties were always the emptiest, and recall
// missed β on 21 of 100 statements at ρ = 0.9.)
func TestPlanInvariantToGroupOrder(t *testing.T) {
	r := stats.NewRNG(43)
	groups := make([]GroupInfo, 60)
	for i := range groups {
		// Three sampled tuples per group: only four posteriors exist.
		groups[i] = GroupInfoFromSample(20, 3, r.IntN(4))
	}
	cons := Constraints{Alpha: 0.9, Beta: 0.9, Rho: 0.9}
	base, err := PlanWithSamples(groups, cons, DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		perm := r.Perm(len(groups))
		shuffled := make([]GroupInfo, len(groups))
		for k, i := range perm {
			shuffled[k] = groups[i]
		}
		s, err := PlanWithSamples(shuffled, cons, DefaultCost)
		if err != nil {
			t.Fatal(err)
		}
		for k, i := range perm {
			// Summation order moves the fixed point in the eighth digit.
			if math.Abs(s.R[k]-base.R[i]) > 1e-6 || math.Abs(s.E[k]-base.E[i]) > 1e-6 {
				t.Fatalf("group %d: (R, E) = (%v, %v) listed at %d, (%v, %v) in list order",
					i, s.R[k], s.E[k], k, base.R[i], base.E[i])
			}
		}
	}
}
