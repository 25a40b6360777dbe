package ml

import (
	"fmt"
	"sort"

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
// maps row id → UDF outcome for the rows already paid for. Training visits
// the labeled rows in ascending row order: ranging over the map would feed
// the gradient accumulation in Go's randomized iteration order, making
// same-seed runs diverge at the last ulp (and occasionally across a bucket
// boundary).
func VirtualGroups(features func(row int) []float64, rows []int, labeled map[int]bool, k int) ([]table.Group, error) {
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
func OneClass(labeled map[int]bool) bool {
	seen, first := false, false
	for _, v := range labeled {
		if !seen {
			seen, first = true, v
		} else if v != first {
			return false
		}
	}
	return seen
}

// virtualScores trains on the labeled rows and scores the universe.
func virtualScores(features func(row int) []float64, rows []int, labeled map[int]bool) ([]float64, error) {
	labeledRows := make([]int, 0, len(labeled))
	for row := range labeled {
		labeledRows = append(labeledRows, row)
	}
	sort.Ints(labeledRows)
	X := make([][]float64, len(labeledRows))
	y := make([]bool, len(labeledRows))
	for i, row := range labeledRows {
		X[i] = features(row)
		y[i] = labeled[row]
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
