package dataset

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/table"
)

// Dataset is a generated relation plus its hidden ground truth. The label
// is deliberately NOT a table column: algorithms may only learn it through
// UDF evaluations, mirroring the paper's protocol ("the value of the UDF is
// known precisely to us for the purposes of evaluation, but assumed to be
// unknown to any of the query evaluation algorithms").
type Dataset struct {
	Spec  Spec
	Table *table.Table
	// Labels holds the hidden UDF outcome per row.
	Labels []bool
	// GroupSizes / GroupSelectivities echo the calibration actually used.
	GroupSizes         []int
	GroupSelectivities []float64
	totalCorrect       int
}

// Generate synthesizes a dataset from the spec, deterministically for a
// given seed.
func Generate(spec Spec, seed uint64) (*Dataset, error) {
	cal, err := Calibrate(spec)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed ^ hashName(spec.Name))

	defs := []table.ColumnDef{
		{Name: "id", Type: table.Int},
		{Name: spec.Predictor, Type: table.String},
		{Name: "score_strong", Type: table.Float},
		{Name: "score_weak", Type: table.Float},
		{Name: "group_score", Type: table.Float},
		{Name: "noise", Type: table.Float},
		{Name: "coarse_" + spec.Predictor, Type: table.String},
	}
	for j := 0; j < spec.ExtraPredictors; j++ {
		defs = append(defs, table.ColumnDef{Name: fmt.Sprintf("pred_%02d", j), Type: table.String})
	}
	schema, err := table.NewSchema(defs...)
	if err != nil {
		return nil, err
	}
	tbl := table.New(spec.Name, schema)

	d := &Dataset{
		Spec:               spec,
		Table:              tbl,
		GroupSizes:         cal.Sizes,
		GroupSelectivities: cal.Selectivities,
	}

	// Assemble rows: per group, exactly cal.Correct[g] correct tuples, in a
	// shuffled global order so row id carries no signal.
	type protoRow struct {
		group int
		label bool
	}
	rows := make([]protoRow, 0, spec.N)
	for g, size := range cal.Sizes {
		for i := 0; i < size; i++ {
			rows = append(rows, protoRow{group: g, label: i < cal.Correct[g]})
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })

	d.Labels = make([]bool, len(rows))
	for id, pr := range rows {
		d.Labels[id] = pr.label
		if pr.label {
			d.totalCorrect++
		}
		lab := 0.0
		if pr.label {
			lab = 1
		}
		// Per-row feature strength is calibrated against the paper's
		// experience: its real features (income, loan purpose, …) predict
		// the UDF far from perfectly, so the ML baselines need large
		// labeled sets before they satisfy the constraints. Noise levels
		// of 2.0σ/3.5σ around the 0/1 label reproduce that regime.
		vals := []table.Value{
			int64(id),
			groupName(spec, pr.group),
			lab + rng.NormFloat64()*2.0, // moderately label-informative
			lab + rng.NormFloat64()*3.5, // weakly label-informative
			cal.Selectivities[pr.group] + rng.NormFloat64()*0.05, // group-level score
			rng.NormFloat64(),           // pure noise
			groupName(spec, pr.group/2), // coarsened predictor
		}
		for j := 0; j < spec.ExtraPredictors; j++ {
			// Noise grows across the extra predictors: pred_00 is nearly
			// the true column, the last is nearly random.
			noise := float64(j+1) / float64(spec.ExtraPredictors+1)
			g := pr.group
			if rng.Bernoulli(noise) {
				g = rng.IntN(spec.Groups)
			}
			vals = append(vals, groupName(spec, g))
		}
		if err := tbl.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func groupName(spec Spec, g int) string {
	// Loan grades read as letters; other predictors as coded values.
	if spec.Predictor == "grade" {
		return string(rune('A' + g))
	}
	return fmt.Sprintf("v%02d", g)
}

func hashName(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Truth returns the uncharged ground-truth predicate.
func (d *Dataset) Truth() func(row int) bool {
	labels := d.Labels
	return func(row int) bool { return labels[row] }
}

// UDF returns the simulated expensive predicate: it reveals the hidden
// label. Wrap it in core.NewMeter to charge and count invocations.
func (d *Dataset) UDF() core.UDF {
	labels := d.Labels
	return core.UDFFunc(func(row int) bool { return labels[row] })
}

// TotalCorrect returns |C|, the number of tuples satisfying the predicate.
func (d *Dataset) TotalCorrect() int { return d.totalCorrect }

// Groups partitions the rows by the named column.
func (d *Dataset) Groups(column string) ([]core.Group, error) {
	idx, err := table.BuildGroupIndex(d.Table, column)
	if err != nil {
		return nil, err
	}
	groups := make([]core.Group, 0, idx.NumGroups())
	for _, key := range idx.Keys() {
		groups = append(groups, core.Group{Key: key, Rows: idx.Rows(key)})
	}
	return groups, nil
}

// PredictorGroups partitions by the designated correlated column.
func (d *Dataset) PredictorGroups() ([]core.Group, error) {
	return d.Groups(d.Spec.Predictor)
}

// MeasuredStats reports the realized group statistics (what Table 3 shows):
// group count, sample deviation of sizes, sample deviation of
// selectivities, and the size–selectivity Pearson correlation.
func (d *Dataset) MeasuredStats() (groups int, sizeDev, selDev, corr float64) {
	sizes := make([]float64, len(d.GroupSizes))
	sels := make([]float64, len(d.GroupSelectivities))
	for i := range sizes {
		sizes[i] = float64(d.GroupSizes[i])
		sels[i] = d.GroupSelectivities[i]
	}
	return len(sizes), stats.SampleStdDev(sizes), stats.SampleStdDev(sels),
		stats.PearsonCorrelation(sizes, sels)
}

// OverallSelectivity returns the realized fraction of correct tuples.
func (d *Dataset) OverallSelectivity() float64 {
	if len(d.Labels) == 0 {
		return 0
	}
	return float64(d.totalCorrect) / float64(len(d.Labels))
}
