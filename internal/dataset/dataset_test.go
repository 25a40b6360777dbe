package dataset

import (
	"context"
	"math"
	"testing"

	predeval "repro"
	"repro/internal/core"
	"repro/internal/stats"
)

func TestCalibrateMatchesPublishedStats(t *testing.T) {
	for _, spec := range All() {
		cal, err := Calibrate(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		sizes := make([]float64, len(cal.Sizes))
		total := 0
		for i, s := range cal.Sizes {
			if s <= 0 {
				t.Fatalf("%s: non-positive group size %d", spec.Name, s)
			}
			sizes[i] = float64(s)
			total += s
		}
		if total != spec.N {
			t.Fatalf("%s: sizes sum to %d, want %d", spec.Name, total, spec.N)
		}
		if got := stats.SampleStdDev(sizes); math.Abs(got-spec.SizeDev) > 0.02*spec.SizeDev {
			t.Fatalf("%s: size dev %v, want %v", spec.Name, got, spec.SizeDev)
		}
		if got := stats.SampleStdDev(cal.Selectivities); math.Abs(got-spec.SelDev) > 0.02 {
			t.Fatalf("%s: sel dev %v, want %v", spec.Name, got, spec.SelDev)
		}
		if got := stats.PearsonCorrelation(sizes, cal.Selectivities); math.Abs(got-spec.SizeSelCorr) > 0.05 {
			t.Fatalf("%s: corr %v, want %v", spec.Name, got, spec.SizeSelCorr)
		}
		if got := stats.WeightedMean(cal.Selectivities, sizes); math.Abs(got-spec.Selectivity) > 0.01 {
			t.Fatalf("%s: overall selectivity %v, want %v", spec.Name, got, spec.Selectivity)
		}
		for i, s := range cal.Selectivities {
			if s < 0 || s > 1 {
				t.Fatalf("%s: selectivity[%d] = %v", spec.Name, i, s)
			}
			if cal.Correct[i] < 0 || cal.Correct[i] > cal.Sizes[i] {
				t.Fatalf("%s: correct[%d] = %d of %d", spec.Name, i, cal.Correct[i], cal.Sizes[i])
			}
		}
	}
}

func TestCalibrateInvalidSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "x", N: 0, Groups: 2, Selectivity: 0.5},
		{Name: "x", N: 100, Groups: 1, Selectivity: 0.5},
		{Name: "x", N: 100, Groups: 5, Selectivity: 0},
		{Name: "x", N: 100, Groups: 5, Selectivity: 0.5, SizeSelCorr: 2},
		{Name: "x", N: 100, Groups: 5, Selectivity: 0.5, SizeDev: -1},
	}
	for i, spec := range bad {
		if _, err := Calibrate(spec); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

func TestGenerateSmallScale(t *testing.T) {
	spec := LendingClub.Scaled(0.05) // ~2650 rows, fast
	d, err := Generate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Table.NumRows() != spec.N {
		t.Fatalf("rows %d, want %d", d.Table.NumRows(), spec.N)
	}
	if len(d.Labels) != spec.N {
		t.Fatalf("labels %d", len(d.Labels))
	}
	// Overall selectivity close to spec.
	if got := d.OverallSelectivity(); math.Abs(got-spec.Selectivity) > 0.02 {
		t.Fatalf("overall selectivity %v, want %v", got, spec.Selectivity)
	}
	// The predictor column realizes every calibrated group.
	groups, err := d.PredictorGroups()
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != spec.Groups {
		t.Fatalf("%d realized groups", len(groups))
	}
	// The extra predictors exist with the requested cardinalities.
	if spec.ExtraPredictors > 0 {
		col, err := d.Table.StringColumn("pred_00")
		if err != nil {
			t.Fatal(err)
		}
		if col.Cardinality() > spec.Groups {
			t.Fatalf("pred_00 cardinality %d", col.Cardinality())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Prosper.Scaled(0.03)
	a, err := Generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels differ across identical seeds")
		}
	}
	c, err := Generate(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Labels {
		if a.Labels[i] == c.Labels[i] {
			same++
		}
	}
	if same == len(a.Labels) {
		t.Fatal("different seeds produced identical labels")
	}
}

func TestDatasetGroupsPartition(t *testing.T) {
	spec := Census.Scaled(0.05)
	d, err := Generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := d.PredictorGroups()
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != spec.Groups {
		t.Fatalf("groups %d, want %d", len(groups), spec.Groups)
	}
	seen := make([]bool, spec.N)
	for _, g := range groups {
		for _, row := range g.Rows {
			if seen[row] {
				t.Fatalf("row %d in two groups", row)
			}
			seen[row] = true
		}
	}
	for row, ok := range seen {
		if !ok {
			t.Fatalf("row %d missing from groups", row)
		}
	}
	if _, err := d.Groups("no_such_column"); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestDatasetInstanceRuns(t *testing.T) {
	spec := Marketing.Scaled(0.05)
	d, err := Generate(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The dataset as a user meets it: its table and its hidden label as a
	// UDF, queried through the facade.
	db := predeval.Open(99)
	db.SetUDFCache(false)
	if err := db.Engine().RegisterTable(d.Table); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterUDF("truth", func(v any) bool { return d.Labels[v.(int64)] }, 0); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(context.Background(), "SELECT id FROM "+spec.Name+" WHERE truth(id) = 1 "+
		"WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8 GROUP ON "+spec.Predictor)
	if err != nil {
		t.Fatal(err)
	}
	if evals := rows.Stats().Evaluations; evals <= 0 || evals > spec.N {
		t.Fatalf("evaluations %d", evals)
	}
	m := core.ComputeMetrics(rows.RowIDs(), d.Truth(), d.TotalCorrect())
	if m.Recall < 0.5 {
		t.Fatalf("recall collapsed: %+v", m)
	}
}

func TestFeatureColumnsInformative(t *testing.T) {
	spec := LendingClub.Scaled(0.05)
	d, err := Generate(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	col, err := d.Table.FloatColumn("score_strong")
	if err != nil {
		t.Fatal(err)
	}
	// score_strong must separate the classes.
	var pos, neg stats.Welford
	for i := 0; i < d.Table.NumRows(); i++ {
		if d.Labels[i] {
			pos.Add(col.At(i))
		} else {
			neg.Add(col.At(i))
		}
	}
	if pos.Mean()-neg.Mean() < 0.5 {
		t.Fatalf("score_strong gap %v too small", pos.Mean()-neg.Mean())
	}
	// noise must not separate the classes.
	ncol, err := d.Table.FloatColumn("noise")
	if err != nil {
		t.Fatal(err)
	}
	var npos, nneg stats.Welford
	for i := 0; i < d.Table.NumRows(); i++ {
		if d.Labels[i] {
			npos.Add(ncol.At(i))
		} else {
			nneg.Add(ncol.At(i))
		}
	}
	if math.Abs(npos.Mean()-nneg.Mean()) > 0.15 {
		t.Fatalf("noise column separates classes by %v", npos.Mean()-nneg.Mean())
	}
}

func TestExtraPredictorNoiseOrdering(t *testing.T) {
	spec := LendingClub.Scaled(0.05)
	d, err := Generate(spec, 13)
	if err != nil {
		t.Fatal(err)
	}
	// pred_00 should agree with the true predictor far more often than the
	// last extra predictor.
	truth, err := d.Table.StringColumn(spec.Predictor)
	if err != nil {
		t.Fatal(err)
	}
	agree := func(name string) float64 {
		col, err := d.Table.StringColumn(name)
		if err != nil {
			t.Fatal(err)
		}
		same := 0
		for i := 0; i < d.Table.NumRows(); i++ {
			if col.At(i) == truth.At(i) {
				same++
			}
		}
		return float64(same) / float64(d.Table.NumRows())
	}
	first := agree("pred_00")
	last := agree("pred_34")
	if first < last+0.3 {
		t.Fatalf("noise ordering broken: pred_00 agreement %v, pred_34 %v", first, last)
	}
}

func TestByNameAndScaled(t *testing.T) {
	s, err := ByName("census")
	if err != nil || s.Name != "census" {
		t.Fatalf("ByName: %v %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	scaled := LendingClub.Scaled(0.1)
	if scaled.N != 5300 {
		t.Fatalf("scaled N %d", scaled.N)
	}
	if math.Abs(scaled.SizeDev-523.3) > 1e-9 {
		t.Fatalf("scaled dev %v", scaled.SizeDev)
	}
	// Tiny factors floor at 10 rows per group.
	tiny := LendingClub.Scaled(0.0001)
	if tiny.N < tiny.Groups*10 {
		t.Fatalf("tiny N %d", tiny.N)
	}
}

func TestScaledStatsStillCalibrate(t *testing.T) {
	for _, spec := range All() {
		s := spec.Scaled(0.05)
		cal, err := Calibrate(s)
		if err != nil {
			t.Fatalf("%s scaled: %v", spec.Name, err)
		}
		sizes := make([]float64, len(cal.Sizes))
		for i, v := range cal.Sizes {
			sizes[i] = float64(v)
		}
		if got := stats.PearsonCorrelation(sizes, cal.Selectivities); math.Abs(got-s.SizeSelCorr) > 0.1 {
			t.Fatalf("%s scaled: corr %v want %v", spec.Name, got, s.SizeSelCorr)
		}
		if got := stats.WeightedMean(cal.Selectivities, sizes); math.Abs(got-s.Selectivity) > 0.02 {
			t.Fatalf("%s scaled: overall sel %v want %v", spec.Name, got, s.Selectivity)
		}
	}
}
