package ml

import (
	"fmt"

	"repro/internal/table"
)

// VirtualGroups builds the logistic-regression virtual column of
// Section 6.3.2: fit a regression on the labeled rows, score every row of
// the universe, and cut the scores into k equal-frequency buckets — one
// group per non-empty bucket, rows in universe order. Labels of one class
// leave the regression nothing to separate (standardized features get no
// gradient, so the scores would differ only by rounding), so they group
// the universe as one bucket.
//
// features renders a row's feature vector; rows is the universe; labeled
// holds the UDF verdicts of the rows already paid for. Training visits the
// labeled rows in the set's order, ascending, so the gradient sums do not
// depend on the order the labels were drawn in.
func VirtualGroups(features func(row int) []float64, rows []int, labeled table.Verdicts, k int) ([]table.Group, error) {
	if OneClass(labeled) {
		return []table.Group{{Key: "bucket00", Rows: rows}}, nil
	}
	scores, err := virtualScores(features, rows, labeled)
	if err != nil {
		return nil, err
	}
	byBucket := make([][]int, k)
	for i, b := range EqualFrequencyBuckets(scores, k) {
		byBucket[b] = append(byBucket[b], rows[i])
	}
	var groups []table.Group
	for b, rws := range byBucket {
		if len(rws) > 0 {
			groups = append(groups, table.Group{Key: fmt.Sprintf("bucket%02d", b), Rows: rws})
		}
	}
	return groups, nil
}

// OneClass reports whether there are labels and they all agree.
func OneClass(labeled table.Verdicts) bool {
	trues := labeled.Trues()
	return labeled.Len() > 0 && (trues == 0 || trues == labeled.Len())
}

// virtualScores trains on the labeled rows and scores the universe.
func virtualScores(features func(row int) []float64, rows []int, labeled table.Verdicts) ([]float64, error) {
	X := make([][]float64, 0, labeled.Len())
	y := make([]bool, 0, labeled.Len())
	for row, v := range labeled.All() {
		X, y = append(X, features(row)), append(y, v)
	}
	var model LogisticRegression
	if err := model.Fit(X, y); err != nil {
		return nil, err
	}
	scores := make([]float64, len(rows))
	for i, row := range rows {
		scores[i] = model.Prob(features(row))
	}
	return scores, nil
}
