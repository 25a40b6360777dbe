package experiments

import "errors"

// Min-knapsack: given items with weights w and values v, pick a subset with
// total value ≥ threshold minimizing total weight. The paper's Theorem 3.2
// reduces this problem to the Perfect-Information problem (with α = 0);
// this exact DP lets tests verify that reduction end-to-end.

// MinKnapsack solves the minimum knapsack problem exactly by dynamic
// programming over achievable value totals. weights and values must be
// non-negative; threshold ≥ 0. It returns the chosen item indices (in
// increasing order) and the minimum total weight. If the threshold is
// unreachable it returns an error.
//
// Complexity is O(n·V) time where V = min(threshold, Σ values).
func MinKnapsack(weights []float64, values []int, threshold int) ([]int, float64, error) {
	n := len(weights)
	if len(values) != n {
		return nil, 0, errors.New("experiments: weights/values length mismatch")
	}
	if threshold <= 0 {
		return nil, 0, nil
	}
	totalValue := 0
	for _, v := range values {
		if v < 0 {
			return nil, 0, errors.New("experiments: negative value")
		}
		totalValue += v
	}
	if totalValue < threshold {
		return nil, 0, errors.New("experiments: threshold unreachable")
	}

	// dp[t] = min weight achieving value total ≥ t, for t in [0, threshold].
	// Values above the threshold are capped at threshold, which preserves
	// optimality for the "≥ threshold" objective.
	const inf = 1e300
	dp := make([]float64, threshold+1)
	choice := make([][]int32, threshold+1) // items chosen to reach state t
	for t := 1; t <= threshold; t++ {
		dp[t] = inf
	}
	for i := 0; i < n; i++ {
		if values[i] == 0 {
			continue
		}
		w, v := weights[i], values[i]
		for t := threshold; t >= 1; t-- {
			from := t - v
			if from < 0 {
				from = 0
			}
			if dp[from] < inf && dp[from]+w < dp[t] {
				dp[t] = dp[from] + w
				choice[t] = append(append([]int32(nil), choice[from]...), int32(i))
			}
		}
	}
	if dp[threshold] >= inf {
		return nil, 0, errors.New("experiments: threshold unreachable")
	}
	items := make([]int, len(choice[threshold]))
	for i, v := range choice[threshold] {
		items[i] = int(v)
	}
	return items, dp[threshold], nil
}
