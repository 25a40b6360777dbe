package ml

import "sort"

// EqualFrequencyBuckets assigns each score to one of k buckets whose
// boundaries are chosen so the buckets have (near-)equal population — the
// paper's construction of the logistic-regression virtual column
// (Section 6.3.2: "bucket ranges are chosen so as to get equal sized
// buckets"). Ties at a boundary fall into the lower bucket, so heavily
// repeated scores can make buckets uneven; callers group by the returned
// bucket id either way.
//
// The returned slice maps each input index to a bucket in [0, k). k must
// be ≥ 1; fewer distinct scores than k simply leaves some buckets empty.
func EqualFrequencyBuckets(scores []float64, k int) []int {
	n := len(scores)
	out := make([]int, n)
	if n == 0 || k <= 1 {
		return out
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })

	// Walk the sorted order assigning ranks, then map rank → bucket; equal
	// scores get the same bucket (that of their first occurrence).
	prevScore := 0.0
	prevBucket := 0
	for rank, idx := range order {
		b := rank * k / n
		if rank > 0 && scores[idx] == prevScore {
			b = prevBucket
		}
		out[idx] = b
		prevScore = scores[idx]
		prevBucket = b
	}
	return out
}
