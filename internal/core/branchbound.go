package core

import (
	"math"
	"slices"
	"sort"
)

// ActionCost is one action open to a group in an exact per-group action
// choice — Section 3.1's discard / retrieve / evaluate, Section 5's five
// two-predicate actions: its cost, the correct output it contributes (the
// recall numerator), and its precision slack corr − α·(corr + wrong), whose
// sum is ≥ 0 exactly when the output's precision is at least α (at α = 0,
// always).
type ActionCost struct {
	Cost, Recall, Slack float64
}

// ChooseActions is the one exact branch and bound for that NP-hard choice
// (Theorem 3.2): pick[i] indexes table[i], minimizing Σ Cost subject to
// Σ Recall ≥ recallTarget and Σ Slack ≥ 0, each within 1e-9; ok is false
// when nothing meets both. It visits the groups in table order (a caller
// wanting another hands over a permuted table) and each group's actions
// cheapest first, ties in table order, and prunes a branch once its cost
// reaches the incumbent's or the best actions left cannot repair its recall
// or slack deficit. Exponential in the worst case, fast for the tens of
// groups real predictors produce.
func ChooseActions(table [][]ActionCost, recallTarget float64) (pick []int, cost float64, ok bool) {
	n := len(table)
	order := make([][]int, n)
	sufRecall := make([]float64, n+1) // the most recall groups i… can add
	sufSlack := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		acts := table[i]
		order[i] = make([]int, len(acts))
		br, bs := 0.0, 0.0
		for a, c := range acts {
			order[i][a] = a
			br, bs = math.Max(br, c.Recall), math.Max(bs, c.Slack)
		}
		sort.SliceStable(order[i], func(x, y int) bool { return acts[order[i][x]].Cost < acts[order[i][y]].Cost })
		sufRecall[i], sufSlack[i] = sufRecall[i+1]+br, sufSlack[i+1]+bs
	}

	best := math.Inf(1)
	cur := make([]int, n)
	var dfs func(i int, spent, recall, slack float64)
	dfs = func(i int, spent, recall, slack float64) {
		if spent >= best || recall+sufRecall[i] < recallTarget-1e-9 || slack+sufSlack[i] < -1e-9 {
			return
		}
		if i == n {
			best, pick = spent, slices.Clone(cur)
			return
		}
		for _, a := range order[i] {
			c := table[i][a]
			cur[i] = a
			dfs(i+1, spent+c.Cost, recall+c.Recall, slack+c.Slack)
		}
	}
	dfs(0, 0, 0, 0)
	return pick, best, pick != nil
}
