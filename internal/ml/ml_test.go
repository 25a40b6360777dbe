package ml

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/table"
)

// linearlySeparable builds a 2D dataset where y = (x0 + x1 > 0).
func linearlySeparable(rng *stats.RNG, n int) ([][]float64, []bool) {
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := 0; i < n; i++ {
		x0 := rng.NormFloat64()
		x1 := rng.NormFloat64()
		X[i] = []float64{x0, x1}
		y[i] = x0+x1 > 0
	}
	return X, y
}

func TestLogisticRegressionSeparable(t *testing.T) {
	rng := stats.NewRNG(1001)
	X, y := linearlySeparable(rng, 600)
	var m LogisticRegression
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range X {
		if (m.Prob(X[i]) >= 0.5) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.95 {
		t.Fatalf("training accuracy %v", acc)
	}
	// Probabilities must be calibrated-ish: deep in the positive region
	// P should be high, deep negative low.
	if p := m.Prob([]float64{3, 3}); p < 0.9 {
		t.Fatalf("P(+3,+3) = %v", p)
	}
	if p := m.Prob([]float64{-3, -3}); p > 0.1 {
		t.Fatalf("P(-3,-3) = %v", p)
	}
}

func TestLogisticRegressionProbabilisticLabels(t *testing.T) {
	// Labels drawn with P(y|x0) = sigmoid(2·x0): learned probabilities
	// should track the generating process.
	rng := stats.NewRNG(1003)
	n := 4000
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := 0; i < n; i++ {
		x := rng.NormFloat64()
		X[i] = []float64{x}
		y[i] = rng.Bernoulli(1 / (1 + math.Exp(-2*x)))
	}
	m := LogisticRegression{Epochs: 400}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if p := m.Prob([]float64{0}); math.Abs(p-0.5) > 0.08 {
		t.Fatalf("P(0) = %v, want ≈0.5", p)
	}
	if p := m.Prob([]float64{1.5}); p < 0.75 {
		t.Fatalf("P(1.5) = %v, want high", p)
	}
}

func TestLogisticRegressionErrors(t *testing.T) {
	var m LogisticRegression
	if err := m.Fit(nil, nil); err == nil {
		t.Fatal("empty training set accepted")
	}
	if err := m.Fit([][]float64{{1}}, []bool{true, false}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := m.Fit([][]float64{{1, 2}, {1}}, []bool{true, false}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	unfitted := LogisticRegression{}
	if p := unfitted.Prob([]float64{1}); p != 0.5 {
		t.Fatalf("unfitted Prob %v, want 0.5", p)
	}
}

func TestLogisticRegressionConstantFeature(t *testing.T) {
	// A zero-variance feature must not produce NaNs.
	X := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	y := []bool{false, false, true, true}
	var m LogisticRegression
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	p := m.Prob([]float64{2.5, 5})
	if math.IsNaN(p) || p < 0 || p > 1 {
		t.Fatalf("prob %v", p)
	}
}

func TestSigmoidProperties(t *testing.T) {
	f := func(z float64) bool {
		z = math.Mod(z, 500)
		p := sigmoid(z)
		q := sigmoid(-z)
		return p >= 0 && p <= 1 && math.Abs(p+q-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if sigmoid(0) != 0.5 {
		t.Fatal("sigmoid(0) != 0.5")
	}
}

// TestVirtualGroupsOrderIndependent pins §6.3.2's determinism: the labeled
// set reaches VirtualGroups as a map, and neither the order it was filled in
// nor Go's per-iteration map order may reach the gradient sums — scores are
// bit-identical, so buckets are too.
func TestVirtualGroupsOrderIndependent(t *testing.T) {
	rng := stats.NewRNG(1007)
	X, y := linearlySeparable(rng, 2000)
	features := func(row int) []float64 { return X[row] }
	rows := make([]int, len(X))
	for i := range rows {
		rows[i] = i
	}
	labeledRows := rng.Perm(len(X))[:300]
	forward, backward := map[int]bool{}, map[int]bool{}
	for i := range labeledRows {
		forward[labeledRows[i]] = y[labeledRows[i]]
		r := labeledRows[len(labeledRows)-1-i]
		backward[r] = y[r]
	}
	wantScores, err := virtualScores(features, rows, forward)
	if err != nil {
		t.Fatal(err)
	}
	wantGroups, err := VirtualGroups(features, rows, forward, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantGroups) != 10 {
		t.Fatalf("%d buckets, want 10", len(wantGroups))
	}
	for trial := 0; trial < 10; trial++ {
		labeled := forward
		if trial%2 == 1 {
			labeled = backward
		}
		scores, err := virtualScores(features, rows, labeled)
		if err != nil {
			t.Fatal(err)
		}
		for i := range scores {
			if math.Float64bits(scores[i]) != math.Float64bits(wantScores[i]) {
				t.Fatalf("trial %d: row %d scored %v, then %v", trial, i, wantScores[i], scores[i])
			}
		}
		groups, err := VirtualGroups(features, rows, labeled, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(groups, wantGroups) {
			t.Fatalf("trial %d: buckets differ", trial)
		}
	}
}

func TestEqualFrequencyBuckets(t *testing.T) {
	scores := []float64{0.9, 0.1, 0.5, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6, 0.0}
	buckets := EqualFrequencyBuckets(scores, 5)
	counts := make([]int, 5)
	for _, b := range buckets {
		counts[b]++
	}
	for b, c := range counts {
		if c != 2 {
			t.Fatalf("bucket %d has %d members: %v", b, counts, buckets)
		}
	}
	// Order: the lowest scores land in bucket 0, the highest in bucket 4.
	if buckets[9] != 0 { // score 0.0
		t.Fatalf("lowest score in bucket %d", buckets[9])
	}
	if buckets[0] != 4 { // score 0.9
		t.Fatalf("highest score in bucket %d", buckets[0])
	}
}

func TestEqualFrequencyBucketsTies(t *testing.T) {
	scores := []float64{1, 1, 1, 1, 2, 2, 2, 2}
	buckets := EqualFrequencyBuckets(scores, 4)
	// All equal scores must share a bucket.
	for i := 0; i < 4; i++ {
		if buckets[i] != buckets[0] {
			t.Fatalf("tied scores split: %v", buckets)
		}
	}
	for i := 5; i < 8; i++ {
		if buckets[i] != buckets[4] {
			t.Fatalf("tied scores split: %v", buckets)
		}
	}
	if buckets[0] == buckets[4] {
		t.Fatalf("distinct scores merged: %v", buckets)
	}
}

func TestEqualFrequencyBucketsProperty(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		k := int(kRaw%9) + 1
		scores := make([]float64, len(raw))
		for i, v := range raw {
			scores[i] = math.Mod(v, 100)
		}
		buckets := EqualFrequencyBuckets(scores, k)
		if len(buckets) != len(scores) {
			return false
		}
		for _, b := range buckets {
			if b < 0 || b >= k && k > 1 {
				return false
			}
		}
		// Monotone: higher score → bucket id not lower.
		for i := range scores {
			for j := range scores {
				if scores[i] < scores[j] && buckets[i] > buckets[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualFrequencyBucketsEdge(t *testing.T) {
	if out := EqualFrequencyBuckets(nil, 3); len(out) != 0 {
		t.Fatal("nil scores")
	}
	out := EqualFrequencyBuckets([]float64{5, 1}, 1)
	if out[0] != 0 || out[1] != 0 {
		t.Fatal("k=1 should place everything in bucket 0")
	}
}

func TestEncoder(t *testing.T) {
	s := table.MustSchema(
		table.ColumnDef{Name: "id", Type: table.Int},
		table.ColumnDef{Name: "grade", Type: table.String},
		table.ColumnDef{Name: "income", Type: table.Float},
		table.ColumnDef{Name: "label", Type: table.Int},
	)
	tbl := table.New("t", s)
	grades := []string{"A", "B", "C", "A", "B"}
	for i, g := range grades {
		if err := tbl.AppendRow(int64(i), g, float64(i)*10, int64(i%2)); err != nil {
			t.Fatal(err)
		}
	}
	enc, err := BuildEncoder(tbl, Encoder{Exclude: []string{"label", "id"}})
	if err != nil {
		t.Fatal(err)
	}
	// grade one-hot (3) + income (1) = 4 features.
	if enc.Dim() != 4 {
		t.Fatalf("dim %d, want 4 (columns %v)", enc.Dim(), enc.Columns())
	}
	v := enc.EncodeRow(tbl, 0)
	oneHotSum := 0.0
	for _, x := range v[:3] {
		oneHotSum += x
	}
	if oneHotSum != 1 {
		t.Fatalf("one-hot row %v", v)
	}
	if v[3] != 0 {
		t.Fatalf("income feature %v", v[3])
	}
	all := enc.EncodeAll(tbl)
	if len(all) != 5 {
		t.Fatalf("EncodeAll rows %d", len(all))
	}
	// Same grade → same one-hot slot.
	if all[0][0] != all[3][0] && all[0][1] != all[3][1] && all[0][2] != all[3][2] {
		t.Fatal("grade A rows encoded differently")
	}
}

func TestEncoderSkipsWideAndConstantColumns(t *testing.T) {
	s := table.MustSchema(
		table.ColumnDef{Name: "wide", Type: table.String},
		table.ColumnDef{Name: "constant", Type: table.String},
		table.ColumnDef{Name: "x", Type: table.Float},
	)
	tbl := table.New("t", s)
	for i := 0; i < 100; i++ {
		if err := tbl.AppendRow(string(rune('a'+i%60))+string(rune('A'+i/2)), "same", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	enc, err := BuildEncoder(tbl, Encoder{MaxCardinality: 50})
	if err != nil {
		t.Fatal(err)
	}
	if enc.Dim() != 1 {
		t.Fatalf("dim %d, want 1 (only x)", enc.Dim())
	}
}

func TestEncoderNoColumns(t *testing.T) {
	s := table.MustSchema(table.ColumnDef{Name: "only", Type: table.String})
	tbl := table.New("t", s)
	_ = tbl.AppendRow("x")
	if _, err := BuildEncoder(tbl, Encoder{Exclude: []string{"only"}}); err == nil {
		t.Fatal("empty encoder accepted")
	}
}

// TestVirtualGroupsOneClassIsOneGroup: labels of one class give the
// regression nothing to separate, so every row of the universe lands in one
// group, whichever class it is. Trained anyway, the scores can differ only
// by rounding, and the buckets then cut the universe at random.
func TestVirtualGroupsOneClassIsOneGroup(t *testing.T) {
	rng := stats.NewRNG(1009)
	X, _ := linearlySeparable(rng, 2000)
	features := func(row int) []float64 { return X[row] }
	rows := make([]int, len(X))
	for i := range rows {
		rows[i] = i
	}
	for _, class := range []bool{false, true} {
		labeled := map[int]bool{}
		for _, row := range rng.Perm(len(X))[:20] {
			labeled[row] = class
		}
		groups, err := VirtualGroups(features, rows, labeled, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) != 1 || !reflect.DeepEqual(groups[0].Rows, rows) {
			t.Fatalf("labels all %v: %d groups, want the universe as one", class, len(groups))
		}
	}
	if _, err := VirtualGroups(features, rows, map[int]bool{}, 10); err == nil {
		t.Fatal("no labels at all trained a virtual column")
	}
}
