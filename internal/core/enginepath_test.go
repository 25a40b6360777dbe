package core_test

import (
	"context"
	"math"
	"os"
	"slices"
	"strconv"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/table"
)

// The end-to-end statistical checks of this package's algorithms run them
// the one way they ship: composed by internal/engine, on the same synthetic
// worlds the unit tests use, loaded as tables through the experiments
// harness. (core cannot import the engine; this external test package can.)

// intelWorld is the three-group world of the single-predicate checks.
func intelWorld(rng *stats.RNG) ([]core.Group, []bool, func(int) bool) {
	return core.SyntheticGroups(rng, []int{2000, 2000, 2000}, []float64{0.9, 0.5, 0.1})
}

func countTrue(n int, truth func(int) bool) int {
	total := 0
	for r := 0; r < n; r++ {
		if truth(r) {
			total++
		}
	}
	return total
}

// world loads groups as an (id, g) table grouped on g.
func world(t *testing.T, groups []core.Group, preds ...experiments.Predicate) experiments.World {
	t.Helper()
	tbl, err := experiments.GroupTable("world", groups)
	if err != nil {
		t.Fatal(err)
	}
	return experiments.World{Table: tbl, GroupOn: "g", Preds: preds}
}

// runEngine runs one approximate statement over the world.
func runEngine(t *testing.T, seed uint64, groups []core.Group, cons core.Constraints, preds ...experiments.Predicate) experiments.Run {
	t.Helper()
	w := world(t, groups, preds...)
	res, err := experiments.RunEngine(context.Background(), seed, w, cons)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunIntelSampleEndToEnd runs one statement per grouping mode: GROUP
// ON the pinned column, §4.4 discovery and §6.3.2's virtual column. On this
// world every mode resolves g's three groups (discovery's only candidate is
// g, and the virtual column's one-hot g features score each group as one
// bucket), so each draws the same Two-Third-Power sample. The two modes
// that label 1% of the rows to resolve the grouping must bill those rows as
// sampled on top of the draw, although they are not sampling evidence, and
// every mode must bill cost as retrievals·o_r + evaluations·o_e.
func TestRunIntelSampleEndToEnd(t *testing.T) {
	rng := stats.NewRNG(601)
	groups, labels, truth := intelWorld(rng)
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	w := world(t, groups, experiments.Predicate{Name: "f", Truth: truth})
	seed := rng.Uint64()
	n := len(labels)
	draw := 0
	for _, k := range core.DefaultAllocator(cons.Alpha).Allocate([]int{2000, 2000, 2000}) {
		draw += k
	}
	in := experiments.Instance{Groups: groups, Meter: core.NewMeter(core.UDFFunc(truth)), Cons: cons}
	naive, err := experiments.RunNaive(in, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	onePercent := int(math.Ceil(core.DefaultLabelFraction * float64(n)))
	for _, mode := range []struct {
		groupOn string
		labels  int
	}{{"g", 0}, {"", onePercent}, {engine.VirtualColumn, onePercent}} {
		w.GroupOn = mode.groupOn
		res, err := experiments.RunEngine(context.Background(), seed, w, cons)
		if err != nil {
			t.Fatalf("GROUP ON %q: %v", mode.groupOn, err)
		}
		if res.Sampled < draw+mode.labels {
			t.Errorf("GROUP ON %q: sampled %d, want the %d labels billed on top of the %d-row draw", mode.groupOn, res.Sampled, mode.labels, draw)
		}
		// A label the draw picks again is sampled twice but called once.
		if res.Evaluations < res.Sampled-mode.labels || res.Retrievals < res.Evaluations {
			t.Errorf("GROUP ON %q: evaluation accounting inconsistent: %+v", mode.groupOn, res)
		}
		if want := float64(res.Retrievals)*core.DefaultCost.Retrieve + float64(res.Evaluations)*core.DefaultCost.Evaluate; res.Cost != want {
			t.Errorf("GROUP ON %q: cost %v, want %v", mode.groupOn, res.Cost, want)
		}
		if res.Evaluations >= naive.Evaluations {
			t.Errorf("GROUP ON %q: Intel-Sample evals %d not below Naive %d", mode.groupOn, res.Evaluations, naive.Evaluations)
		}
		m := core.ComputeMetrics(res.Rows, truth, countTrue(n, truth))
		// A single run can miss (ρ=0.8) but with these wide margins it
		// should be extremely safe; treat failure as suspicious.
		if m.Precision < 0.7 || m.Recall < 0.7 {
			t.Errorf("GROUP ON %q: metrics far below constraints: %+v", mode.groupOn, m)
		}
	}
}

// The two satisfaction-rate checks decide by stats.ContractHolds (through
// Tally.Holds). Their sizes set the power against a true rate of ρ − 0.1:
// 0.80 at 280 statements, 0.46 at 160 (DESIGN.md, "Accuracy contract").

func TestRunIntelSampleSatisfactionRate(t *testing.T) {
	rng := stats.NewRNG(603)
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	groups, _, truth := intelWorld(rng.Split())
	w := world(t, groups, experiments.Predicate{Name: "f", Truth: truth})
	tally, err := experiments.Sweep(context.Background(), w, cons, 280, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !tally.Holds(cons.Rho) {
		t.Fatalf("precision met %d, recall met %d of %d statements", tally.MetP, tally.MetR, len(tally.Statements))
	}
}

func TestRunTwoPredicatesEndToEnd(t *testing.T) {
	rng := stats.NewRNG(1109)
	groups, l1, l2 := core.TwoPredWorld(rng,
		[]int{1500, 1500, 1500},
		[]float64{0.95, 0.5, 0.05},
		[]float64{0.9, 0.6, 0.5}, 0)
	// The engine does not expose the per-group actions, so the UDF bodies
	// count the calls each predicate receives in the dead group.
	dead := func(r int) bool { return r >= 3000 }
	var dead1, dead2 int
	f1 := experiments.Predicate{Name: "f1", Truth: func(r int) bool {
		if dead(r) {
			dead1++
		}
		return l1[r]
	}}
	f2 := experiments.Predicate{Name: "f2", Truth: func(r int) bool {
		if dead(r) {
			dead2++
		}
		return l2[r]
	}}
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	res := runEngine(t, rng.Uint64(), groups, cons, f1, f2)
	// Quality versus the conjunction ground truth.
	truth := func(r int) bool { return l1[r] && l2[r] }
	m := core.ComputeMetrics(res.Rows, truth, countTrue(len(l1), truth))
	if m.Precision < 0.7 || m.Recall < 0.7 {
		t.Fatalf("metrics collapsed: %+v", m)
	}
	// Must beat evaluating both predicates on every tuple.
	evalAllCost := float64(4500) * (core.DefaultCost.Retrieve + 2*core.DefaultCost.Evaluate)
	if res.Cost >= evalAllCost {
		t.Fatalf("cost %v not below eval-everything %v", res.Cost, evalAllCost)
	}
	// The near-zero sel1 group should mostly be discarded, not eval'd: the
	// two wasteful actions (evaluate f2, or both) are the only ones that
	// call f2 on a row of it the joint sample did not already pay for.
	sampledDead := core.DefaultAllocator(cons.Alpha).Allocate([]int{1500, 1500, 1500})[2]
	if dead2 != sampledDead || dead1 < sampledDead {
		t.Fatalf("wasteful action on dead group: f1 called %d times, f2 %d, joint sample %d", dead1, dead2, sampledDead)
	}
}

func TestRunTwoPredicatesSatisfactionRate(t *testing.T) {
	rng := stats.NewRNG(1111)
	cons := core.Constraints{Alpha: 0.75, Beta: 0.75, Rho: 0.8}
	groups, l1, l2 := core.TwoPredWorld(rng.Split(),
		[]int{1000, 1000, 1000},
		[]float64{0.9, 0.5, 0.1},
		[]float64{0.85, 0.7, 0.6}, 0)
	w := world(t, groups,
		experiments.Predicate{Name: "f1", Truth: func(r int) bool { return l1[r] }},
		experiments.Predicate{Name: "f2", Truth: func(r int) bool { return l2[r] }})
	tally, err := experiments.Sweep(context.Background(), w, cons, 160, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !tally.Holds(cons.Rho) {
		t.Fatalf("precision met %d, recall met %d of %d statements", tally.MetP, tally.MetR, len(tally.Statements))
	}
}

// gridN is the statements per cell of a contract grid: 100 in tier-1, or
// CONTRACT_GRID_N (CI's full-power step sets 810).
func gridN(t *testing.T) int {
	t.Helper()
	v := os.Getenv("CONTRACT_GRID_N")
	if v == "" {
		return 100
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		t.Fatalf("CONTRACT_GRID_N=%q", v)
	}
	return n
}

// TestContractGridTwoPredicates runs the §5 plan over worlds built to break
// its old independence assumption: six groups of 1,000 rows, f1 falling and
// f2 rising across them, and f2 copying f1 ("pos") or ¬f1 ("neg") on a
// share of rows. Each cell is one Sweep of statements at α = β = ρ = 0.9,
// decided by stats.ContractHolds. Tier-1 runs 100 statements per cell; CI's
// full-power step sets CONTRACT_GRID_N=810, where the rule refutes a true
// rate of 0.85 nine times in ten.
//
// "neg 0.6" is a known breach (ROADMAP item 1): the joint cells fixed its
// precision, but recall still falls short, because §3.2's Hoeffding margin
// is applied to posterior means. It met recall on 671 of 810 statements,
// which the rule refutes, and on 81 of tier-1's 100 (675 and 82 before the
// draws became keyed per row). Its counts are pinned so the cell fails
// loudly once the margin is fixed.
func TestContractGridTwoPredicates(t *testing.T) {
	n := gridN(t)
	cons := core.Constraints{Alpha: 0.9, Beta: 0.9, Rho: 0.9}
	knownRecall := map[int]int{100: 81, 810: 671} // neg 0.6, by n
	for _, cell := range []struct {
		name  string
		share float64
	}{{"independent", 0}, {"pos 0.3", 0.3}, {"pos 0.6", 0.6}, {"neg 0.3", -0.3}, {"neg 0.6", -0.6}} {
		rng := stats.NewRNG(3601)
		groups, l1, l2 := core.TwoPredWorld(rng.Split(),
			[]int{1000, 1000, 1000, 1000, 1000, 1000},
			[]float64{0.9, 0.75, 0.6, 0.45, 0.3, 0.15},
			[]float64{0.35, 0.43, 0.52, 0.6, 0.68, 0.77}, cell.share)
		w := world(t, groups,
			experiments.Predicate{Name: "f1", Truth: func(r int) bool { return l1[r] }},
			experiments.Predicate{Name: "f2", Truth: func(r int) bool { return l2[r] }})
		tally, err := experiments.Sweep(context.Background(), w, cons, n, rng)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: precision met %d, recall met %d of %d", cell.name, tally.MetP, tally.MetR, n)
		if cell.name != "neg 0.6" {
			if !tally.Holds(cons.Rho) {
				t.Errorf("%s: precision met %d, recall met %d of %d statements", cell.name, tally.MetP, tally.MetR, n)
			}
			continue
		}
		if !stats.ContractHolds(tally.MetP, n, cons.Rho, stats.ContractSignificance) {
			t.Errorf("neg 0.6: precision met %d of %d statements", tally.MetP, n)
		}
		if want, ok := knownRecall[n]; ok && tally.MetR != want {
			t.Errorf("neg 0.6: recall met %d of %d, the known breach was %d", tally.MetR, n, want)
		}
		if n == 810 && stats.ContractHolds(tally.MetR, n, cons.Rho, stats.ContractSignificance) {
			t.Errorf("neg 0.6: the known recall breach is no longer refuted (%d of %d)", tally.MetR, n)
		}
	}
}

// costRatio is a Sweep's mean statement cost against retrieving and
// evaluating every row of the world's table.
func costRatio(tally experiments.Tally, w experiments.World) float64 {
	cost := 0.0
	for _, o := range tally.Statements {
		cost += o.Cost
	}
	return cost / (float64(len(tally.Statements)*w.Table.NumRows()) * (core.DefaultCost.Retrieve + core.DefaultCost.Evaluate))
}

// TestContractGridJoin checks the §5 selection-before-join plan against the
// join result's ground truth: six groups of 1,000 rows with selectivities
// 0.9 … 0.15, joined to an orders table that holds each row's id as many
// times as its join weight, so a returned row counts that many times toward
// precision and recall. "uniform 0–3" draws every row's weight uniformly
// from {0, 1, 2, 3} (a row of weight 0 is not in the join); "5% at 20"
// gives one row in twenty weight 20 and the rest weight 1. Each cell is one
// Sweep at α = β = ρ = 0.9, decided by Tally.Holds; the cost against
// evaluating every row is logged. Tier-1 runs 100 statements per cell, CI's
// full-power step 810.
func TestContractGridJoin(t *testing.T) {
	n := gridN(t)
	cons := core.Constraints{Alpha: 0.9, Beta: 0.9, Rho: 0.9}
	for _, cell := range []struct {
		name   string
		weight func(r *stats.RNG) int
	}{
		{"uniform 0-3", func(r *stats.RNG) int { return r.IntN(4) }},
		{"5% at 20", func(r *stats.RNG) int {
			if r.Bernoulli(0.05) {
				return 20
			}
			return 1
		}},
	} {
		rng := stats.NewRNG(3801)
		groups, _, truth := core.SyntheticGroups(rng.Split(),
			[]int{1000, 1000, 1000, 1000, 1000, 1000},
			[]float64{0.9, 0.75, 0.6, 0.45, 0.3, 0.15})
		w := world(t, groups, experiments.Predicate{Name: "f", Truth: truth})
		orders := table.New("orders", table.MustSchema(table.ColumnDef{Name: "ref", Type: table.Int}))
		weights := rng.Split()
		for row := 0; row < w.Table.NumRows(); row++ {
			for range cell.weight(weights) {
				if err := orders.AppendRow(int64(row)); err != nil {
					t.Fatal(err)
				}
			}
		}
		w.Right, w.LeftKey, w.RightKey = orders, "id", "ref"
		tally, err := experiments.Sweep(context.Background(), w, cons, n, rng)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: precision met %d, recall met %d of %d, cost ratio %.3f",
			cell.name, tally.MetP, tally.MetR, n, costRatio(tally, w))
		if !tally.Holds(cons.Rho) {
			t.Errorf("%s: precision met %d, recall met %d of %d statements", cell.name, tally.MetP, tally.MetR, n)
		}
	}
}

// TestContractGridCalibration is the single-predicate ρ-calibration curve:
// the §4 plan at α = β = 0.9 for ρ ∈ {0.5, 0.8, 0.9, 0.95} over four
// worlds — three large groups, thirty mid-size groups with selectivities
// spread over [0, 1], two hundred groups of twenty rows spread the same way
// (three sampled rows each, so many groups share a posterior, and their keys
// sort by true selectivity), and group sizes skewed from 8,000 down to 50.
// Each cell is one Sweep decided by
// stats.ContractHolds; the delivered rates and the cost against an exact
// scan are logged, so a tighter margin shows as rates moving toward ρ from
// above. Tier-1 runs 100 statements per cell, CI's full-power step 810.
func TestContractGridCalibration(t *testing.T) {
	n := gridN(t)
	spread := func(k int) []float64 {
		sel := make([]float64, k)
		for i := range sel {
			sel[i] = float64(i) / float64(k-1)
		}
		return sel
	}
	repeat := func(k, size int) []int {
		sizes := make([]int, k)
		for i := range sizes {
			sizes[i] = size
		}
		return sizes
	}
	worlds := []struct {
		name  string
		sizes []int
		sel   []float64
	}{
		{"3x2000", []int{2000, 2000, 2000}, []float64{0.9, 0.5, 0.1}},
		{"30x200", repeat(30, 200), spread(30)},
		{"200x20", repeat(200, 20), spread(200)},
		{"skewed", []int{8000, 2000, 500, 200, 50}, []float64{0.5, 0.8, 0.2, 0.95, 0.05}},
	}
	for _, wd := range worlds {
		rng := stats.NewRNG(3701)
		groups, _, truth := core.SyntheticGroups(rng.Split(), wd.sizes, wd.sel)
		w := world(t, groups, experiments.Predicate{Name: "f", Truth: truth})
		for _, rho := range []float64{0.5, 0.8, 0.9, 0.95} {
			cons := core.Constraints{Alpha: 0.9, Beta: 0.9, Rho: rho}
			tally, err := experiments.Sweep(context.Background(), w, cons, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			cost := costRatio(tally, w)
			t.Logf("%s ρ=%.2f: precision met %.3f, recall met %.3f, cost ratio %.3f",
				wd.name, rho, float64(tally.MetP)/float64(n), float64(tally.MetR)/float64(n), cost)
			if !tally.Holds(rho) {
				t.Errorf("%s ρ=%v: precision met %d, recall met %d of %d statements",
					wd.name, rho, tally.MetP, tally.MetR, n)
			}
		}
	}
}

// TestContractGridGroupingModes runs the §4 plan over the four paper
// datasets at scale 0.05, grouped each of the ways a statement can group:
// on the dataset's designated predictor (GROUP ON pinned), on the column
// §4.4 discovery picks (no GROUP ON) and on §6.3.2's virtual column (GROUP
// ON virtual). Discovery and the virtual column label 1% of the rows to
// choose or train the grouping; those labels shape the groups, so they must
// not also serve as evidence about them. Each cell is one Sweep at
// α = β = ρ = 0.8, decided by Tally.Holds; met counts and the cost against
// an exact scan are logged. Tier-1 runs 100 statements per cell, CI's
// full-power step 810.
func TestContractGridGroupingModes(t *testing.T) {
	n := gridN(t)
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	for _, spec := range dataset.All() {
		d, err := dataset.Generate(spec.Scaled(0.05), 4101)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct{ name, groupOn string }{
			{"predictor", spec.Predictor}, {"discovery", ""}, {"virtual", engine.VirtualColumn},
		} {
			w := experiments.World{Table: d.Table, GroupOn: mode.groupOn,
				Preds: []experiments.Predicate{{Name: "f", Truth: d.Truth()}}}
			tally, err := experiments.Sweep(context.Background(), w, cons, n, stats.NewRNG(4103))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s %s: precision met %d, recall met %d of %d, cost ratio %.3f",
				spec.Name, mode.name, tally.MetP, tally.MetR, n, costRatio(tally, w))
			if !tally.Holds(cons.Rho) {
				t.Errorf("%s %s: precision met %d, recall met %d of %d statements",
					spec.Name, mode.name, tally.MetP, tally.MetR, n)
			}
		}
	}
}

// TestRepeatedStatementsAreFreshTrials is the repeat cell: ρ must hold per
// engine, over one statement repeated on it, with a durable catalog
// attached. Each of 60 engines (seeds 1000–1059) runs the §4 plan 20 times
// over the calibration grid's 30×200 world at α = β = 0.9, and its
// precision and recall counts are each decided by stats.ContractHolds at
// the Bonferroni level 10⁻³/60. Every repeat must also return the rows a
// catalog-less engine at the same seed returns: what the catalog knows may
// change what an answer costs, never which draw it is.
func TestRepeatedStatementsAreFreshTrials(t *testing.T) {
	const engines, repeats = 60, 20
	sizes, sel := make([]int, 30), make([]float64, 30)
	for i := range sizes {
		sizes[i], sel[i] = 200, float64(i)/29
	}
	groups, _, truth := core.SyntheticGroups(stats.NewRNG(3701).Split(), sizes, sel)
	w := world(t, groups, experiments.Predicate{Name: "f", Truth: truth})
	total := countTrue(w.Table.NumRows(), truth)
	for _, rho := range []float64{0.5, 0.8} {
		cons := core.Constraints{Alpha: 0.9, Beta: 0.9, Rho: rho}
		refuted, diverged := 0, 0
		for seed := uint64(1000); seed < 1000+engines; seed++ {
			warm, q, err := experiments.NewEngine(seed, w, cons)
			if err != nil {
				t.Fatal(err)
			}
			c, err := catalog.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			warm.SetCatalog(c)
			cold, _, err := experiments.NewEngine(seed, w, cons)
			if err != nil {
				t.Fatal(err)
			}
			metP, metR := 0, 0
			for i := range repeats {
				res, err := warm.ExecuteContext(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := cold.ExecuteContext(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(res.Rows, ref.Rows) {
					if diverged++; diverged <= 3 {
						t.Errorf("ρ=%v seed %d repeat %d: warm returned %d rows, cold %d", rho, seed, i, len(res.Rows), len(ref.Rows))
					}
				}
				p, r := core.ComputeMetrics(res.Rows, truth, total).Satisfies(cons)
				if p {
					metP++
				}
				if r {
					metR++
				}
			}
			if err := warm.CloseCatalog(); err != nil {
				t.Fatal(err)
			}
			alpha := stats.ContractSignificance / engines
			if !stats.ContractHolds(metP, repeats, rho, alpha) || !stats.ContractHolds(metR, repeats, rho, alpha) {
				refuted++
				t.Errorf("ρ=%v seed %d: precision met %d, recall met %d of %d repeats", rho, seed, metP, metR, repeats)
			}
		}
		t.Logf("ρ=%v: %d of %d engines refuted, %d warm repeats diverged from cold", rho, refuted, engines, diverged)
	}
}
