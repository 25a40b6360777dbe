// Moderation demonstrates conjunctions of two expensive predicates
// (Section 5): a content platform wants posts that are BOTH relevant to a
// campaign AND safe, where each check is a separate crowd task. The
// optimizer trades accuracy between the two predicates per topic group —
// topics that rarely pass the relevance check never pay for the safety
// check at all.
//
//	go run ./examples/moderation
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync/atomic"

	"repro"
	"repro/internal/stats"
)

func main() {
	const n = 9000
	rng := stats.NewRNG(31)
	topics := []string{"sports", "politics", "spam", "tech", "art", "memes"}
	relevanceRate := []float64{0.9, 0.55, 0.03, 0.8, 0.35, 0.15}
	safetyRate := []float64{0.95, 0.6, 0.3, 0.9, 0.85, 0.7}

	var csv strings.Builder
	csv.WriteString("id,topic\n")
	relevant := make(map[int64]bool, n)
	safe := make(map[int64]bool, n)
	for i := 0; i < n; i++ {
		topicIdx := i % len(topics)
		relevant[int64(i)] = rng.Bernoulli(relevanceRate[topicIdx])
		safe[int64(i)] = rng.Bernoulli(safetyRate[topicIdx])
		fmt.Fprintf(&csv, "%d,%s\n", i, topics[topicIdx])
	}

	db := predeval.Open(8)
	if err := db.LoadCSV("posts", strings.NewReader(csv.String())); err != nil {
		log.Fatal(err)
	}
	// Atomic: the engine may fan crowd tasks across concurrent workers.
	var crowdTasks atomic.Int64
	if err := db.RegisterUDF("is_relevant", func(v any) bool {
		crowdTasks.Add(1)
		return relevant[v.(int64)]
	}, 3); err != nil {
		log.Fatal(err)
	}
	if err := db.RegisterUDF("is_safe", func(v any) bool {
		crowdTasks.Add(1)
		return safe[v.(int64)]
	}, 3); err != nil {
		log.Fatal(err)
	}

	rows, err := db.QueryContext(context.Background(), `SELECT id, topic FROM posts
		WHERE is_relevant(id) = 1 AND is_safe(id) = 1
		WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8
		GROUP ON topic`)
	if err != nil {
		log.Fatal(err)
	}

	totalCorrect, correct := 0, 0
	for i := int64(0); i < n; i++ {
		if relevant[i] && safe[i] {
			totalCorrect++
		}
	}
	for _, id := range rows.RowIDs() {
		if relevant[int64(id)] && safe[int64(id)] {
			correct++
		}
	}

	fmt.Printf("posts: %d, truly relevant-and-safe: %d\n", n, totalCorrect)
	fmt.Printf("selected: %d posts with %d crowd tasks (exact evaluation would short-circuit at %d, worst case %d)\n",
		rows.Len(), crowdTasks.Load(), exactShortCircuit(relevant), 2*n)
	fmt.Printf("precision %.3f, recall %.3f\n",
		float64(correct)/float64(rows.Len()),
		float64(correct)/float64(totalCorrect))
	fmt.Printf("savings: %.0f%% fewer crowd tasks than exact short-circuit evaluation\n",
		100*(1-float64(crowdTasks.Load())/float64(exactShortCircuit(relevant))))
}

// exactShortCircuit counts the crowd tasks an exact conjunction needs:
// one relevance check per post plus one safety check per relevant post.
func exactShortCircuit(relevant map[int64]bool) int {
	tasks := len(relevant)
	for _, v := range relevant {
		if v {
			tasks++
		}
	}
	return tasks
}
