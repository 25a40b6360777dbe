package experiments

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// syntheticGroups builds a labeled relation: group i has sizes[i] rows of
// which round(sel[i]·size) are correct, shuffled within the group so
// sampling order is not label-ordered.
func syntheticGroups(rng *stats.RNG, sizes []int, sel []float64) ([]core.Group, []bool) {
	total := 0
	for _, s := range sizes {
		total += s
	}
	labels := make([]bool, total)
	groups := make([]core.Group, len(sizes))
	row := 0
	for gi, size := range sizes {
		rows := make([]int, size)
		correct := int(math.Round(sel[gi] * float64(size)))
		for k := 0; k < size; k++ {
			rows[k] = row
			labels[row] = k < correct
			row++
		}
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		groups[gi] = core.Group{Key: string(rune('A' + gi)), Rows: rows}
	}
	return groups, labels
}

func testInstance(rng *stats.RNG) (Instance, []bool, func(int) bool) {
	groups, labels := syntheticGroups(rng, []int{2000, 2000, 2000}, []float64{0.9, 0.5, 0.1})
	truth := func(r int) bool { return labels[r] }
	in := Instance{
		Groups: groups,
		Meter:  core.NewMeter(core.UDFFunc(truth)),
		Cons:   core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8},
	}
	return in, labels, truth
}

func totalCorrect(labels []bool) int {
	n := 0
	for _, v := range labels {
		if v {
			n++
		}
	}
	return n
}

// TestLabMatchesEngineAtDefaultAllocator holds the lab to the engine bit for
// bit where the two overlap: at the engine's allocator, under the key an
// engine seeded the same way gives its first approximate statement, both
// compositions return the same rows and the same accounting. It fails the
// moment either side's sequencing, key derivation or cost formula changes
// alone.
func TestLabMatchesEngineAtDefaultAllocator(t *testing.T) {
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	for _, spec := range dataset.All() {
		d, err := dataset.Generate(spec.Scaled(0.1), 41)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 5; seed++ {
			system, err := RunEngine(context.Background(), seed, predictorWorld(d), cons)
			if err != nil {
				t.Fatal(err)
			}
			in, err := instance(d, cons)
			if err != nil {
				t.Fatal(err)
			}
			// engine.New(seed) keys its first approximate statement Sub(0).
			lab, err := Lab(context.Background(), in, EngineDraw(cons.Alpha), stats.Key(seed).Sub(0))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(lab, system) {
				t.Fatalf("%s seed %d: lab and engine diverge\nlab    %d rows, evals %d retr %d sampled %d cost %v\nengine %d rows, evals %d retr %d sampled %d cost %v",
					spec.Name, seed,
					len(lab.Rows), lab.Evaluations, lab.Retrievals, lab.Sampled, lab.Cost,
					len(system.Rows), system.Evaluations, system.Retrievals, system.Sampled, system.Cost)
			}
			if system.Sampled == 0 {
				t.Fatalf("%s seed %d: nothing sampled", spec.Name, seed)
			}
		}
	}
}

func TestRunIntelSampleAdaptive(t *testing.T) {
	rng := stats.NewRNG(605)
	in, labels, truth := testInstance(rng)
	search := func(ctx context.Context, s *core.Sampler, sizes []int) error {
		_, err := AdaptiveTwoThirdPower(ctx, s, sizes, in.Cons, AdaptiveOptions{})
		return err
	}
	res, err := Lab(context.Background(), in, search, stats.Key(rng.Uint64()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled == 0 {
		t.Fatal("adaptive run sampled nothing")
	}
	m := core.ComputeMetrics(res.Rows, truth, totalCorrect(labels))
	if m.Precision < 0.6 || m.Recall < 0.6 {
		t.Fatalf("adaptive metrics collapsed: %+v", m)
	}
}

func TestAdaptiveTwoThirdPower(t *testing.T) {
	rng := stats.NewRNG(507)
	in, _, _ := testInstance(rng)
	s := core.NewSampler(in.Groups, in.Meter, rng.Split())
	num, err := AdaptiveTwoThirdPower(context.Background(), s, []int{2000, 2000, 2000}, in.Cons, AdaptiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if num <= 0 || num > 20 {
		t.Fatalf("num %v out of range", num)
	}
	// Sampling must have happened, but far less than evaluating everything.
	if s.TotalSampled() == 0 {
		t.Fatal("adaptive scheme sampled nothing")
	}
	if s.TotalSampled() > 3000 {
		t.Fatalf("adaptive scheme sampled %d of 6000 tuples", s.TotalSampled())
	}
	// The sampler state must be planable afterwards.
	if _, err := core.PlanWithSamples(s.Infos(), in.Cons, core.DefaultCost); err != nil {
		t.Fatal(err)
	}
}

func TestConstantAllocator(t *testing.T) {
	a := ConstantAllocator{C: 50}
	got := a.Allocate([]int{100, 30, 0})
	want := []int{50, 30, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("alloc %v want %v", got, want)
		}
	}
	if a.String() != "constant(50)" {
		t.Fatalf("name %s", a.String())
	}
}

func TestRunNaive(t *testing.T) {
	rng := stats.NewRNG(609)
	in, labels, truth := testInstance(rng)
	res, err := RunNaive(in, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	wantK := int(0.8*float64(len(labels))) + 1
	if res.Evaluations < wantK-1 || res.Evaluations > wantK+1 {
		t.Fatalf("naive evaluated %d, want ≈%d", res.Evaluations, wantK)
	}
	m := core.ComputeMetrics(res.Rows, truth, totalCorrect(labels))
	if m.Precision != 1 {
		t.Fatalf("naive precision %v, must be exactly 1", m.Precision)
	}
	if m.Recall < 0.74 || m.Recall > 0.86 {
		t.Fatalf("naive recall %v, want ≈0.8", m.Recall)
	}
}

func TestRunPerfectSelectivities(t *testing.T) {
	rng := stats.NewRNG(611)
	in, labels, truth := testInstance(rng)
	res, err := RunPerfectSelectivities(context.Background(), in, truth, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled != 0 {
		t.Fatal("Optimal baseline must not sample")
	}
	m := core.ComputeMetrics(res.Rows, truth, totalCorrect(labels))
	if m.Precision < 0.7 || m.Recall < 0.7 {
		t.Fatalf("optimal metrics collapsed: %+v", m)
	}
	// With free perfect knowledge, Optimal should beat Intel-Sample on
	// total evaluations (which pays for sampling).
	in.Meter = core.NewMeter(core.UDFFunc(truth))
	intel, err := Lab(context.Background(), in, EngineDraw(in.Cons.Alpha), stats.Key(rng.Uint64()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations > intel.Evaluations+200 {
		t.Fatalf("Optimal evals %d much worse than Intel-Sample %d", res.Evaluations, intel.Evaluations)
	}
}

func TestPerfectInfoWrapper(t *testing.T) {
	groups := []PerfectInfoGroup{
		{Key: "1", Correct: 900, Wrong: 100},
		{Key: "2", Correct: 500, Wrong: 500},
		{Key: "3", Correct: 100, Wrong: 900},
	}
	cons := core.Constraints{Alpha: 0.9, Beta: 0.9, Rho: 0.9}
	plan, err := SolvePerfectInformation(groups, cons, core.DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost != 5000 {
		t.Fatalf("cost %v want 5000", plan.Cost)
	}
	s := plan.Strategy()
	if s.R[0] != 1 || s.E[0] != 0 {
		t.Fatalf("group 1 should be retrieve-only: R=%v E=%v", s.R[0], s.E[0])
	}
	if s.R[1] != 1 || s.E[1] != 1 {
		t.Fatalf("group 2 should be evaluated: R=%v E=%v", s.R[1], s.E[1])
	}
	if s.R[2] != 0 {
		t.Fatalf("group 3 should be discarded: R=%v", s.R[2])
	}
	if _, err := SolvePerfectInformation(nil, cons, core.DefaultCost); err == nil {
		t.Fatal("empty groups accepted")
	}
	if _, err := SolvePerfectInformation([]PerfectInfoGroup{{Correct: -1}}, cons, core.DefaultCost); err == nil {
		t.Fatal("negative counts accepted")
	}
}

// TestOneComposition pins where the paper's pipeline is sequenced: outside
// tests, examples and predbench's layer probes, the sampler's top-up and the
// executor are called only by internal/engine and the lab (which runs the
// keyed executor to draw the engine's coins). A third composition — the
// drift this package used to carry — fails here.
func TestOneComposition(t *testing.T) {
	const root = "../.."
	lab := filepath.Join("internal", "experiments", "lab.go")
	steps := map[string][]string{ // step → files allowed beside internal/engine
		"TopUpCtx":                {lab},
		"ExecuteParallelCtx":      {lab},
		"ExecuteSpansParallelCtx": {lab},
	}
	seen := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			switch rel {
			case "examples", filepath.Join("cmd", "predbench"), filepath.Join("internal", "core"):
				return filepath.SkipDir // demos, layer probes, the definitions
			}
			if d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && rel != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			allowed, step := steps[sel.Sel.Name]
			if !step {
				return true
			}
			seen[sel.Sel.Name]++
			if filepath.Dir(rel) != filepath.Join("internal", "engine") && !slices.Contains(allowed, rel) {
				t.Errorf("%s calls %s: the pipeline is composed in internal/engine (and, for its sampling study, %s) only", rel, sel.Sel.Name, lab)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for step := range steps {
		if seen[step] == 0 {
			t.Errorf("no call of %s found: the scan is looking in the wrong place", step)
		}
	}
}
