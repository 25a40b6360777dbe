package engine

import (
	"context"
	"hash/fnv"
	"testing"

	"repro/internal/table"
)

// rowsChecksum fingerprints an ordered row-id list for golden comparisons.
func rowsChecksum(rows []int) uint64 {
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte{byte(r), byte(r >> 8), byte(r >> 16), byte(r >> 24)})
	}
	return h.Sum64()
}

// TestTwoPredRegressionPinned pins the exact output of the legacy
// two-predicate dispatch (engine seed 7, loan fixture seed 42, captured at
// PR 3 / commit ab23ef1, before the planner refactor subsumed it into the
// N-ary conjunction path). The refactor's contract is bit-for-bit
// compatibility: rows, checksum and every Stats field must match at every
// parallelism level, including the follow-up query on the same engine. One
// field was re-pinned on purpose:
// the §5 golden's Sampled is 390 (the jointly sampled rows) where the legacy
// dispatch always reported 0, because it subtracted evaluation counts that
// already included sampling. The approx row is no longer the legacy
// capture: it was re-pinned when the §5 planner stopped pricing a product of
// marginals and read its sample's joint cells instead. The follow-up row was
// re-pinned when the §4 planner's margin became each group's exact variance
// with a one-sided (Cantelli) tail; the sample it draws is unchanged
// (Sampled 417). Both approximate rows were re-pinned again when the §5
// sample moved onto the one core.Sampler, whose per-group shuffle draws
// other (equally uniform) rows than the joint sampler's draw did: the §5
// answer changed, its Stats did not, and the follow-up moved only through
// the shared cache the §5 statement filled (Evaluations 236 → 249,
// CacheHits 282 → 269). Both were re-pinned once more when the draws
// became keyed per row (stats.Key): the samples (390 and 417 rows) and
// the coins are other, equally uniform rows, so the answers and the calls
// moved and the sample sizes did not.
func TestTwoPredRegressionPinned(t *testing.T) {
	type golden struct {
		rows  int
		hash  uint64
		stats Stats
	}
	approxGold := golden{999, 0x83b110d28ce52586, Stats{
		Evaluations: 2967, Retrievals: 2130, Cost: 11031,
		ChosenColumn: "grade", Sampled: 390, CacheMisses: 2967,
	}}
	followGold := golden{1520, 0xfd8945ca233a4cf4, Stats{
		Evaluations: 244, Retrievals: 1799, Cost: 2531,
		ChosenColumn: "grade", Sampled: 417, CacheHits: 335, CacheMisses: 244,
	}}
	exactGold := golden{1016, 0x8806df37156d2052, Stats{
		Evaluations: 4515, Retrievals: 3000, Cost: 16545,
		Exact: true, CacheMisses: 4515,
	}}
	check := func(t *testing.T, name string, res *Result, want golden) {
		t.Helper()
		if len(res.Rows) != want.rows || rowsChecksum(res.Rows) != want.hash {
			t.Errorf("%s: got %d rows (hash %#x), want %d (hash %#x)",
				name, len(res.Rows), rowsChecksum(res.Rows), want.rows, want.hash)
		}
		if res.Stats != want.stats {
			t.Errorf("%s: stats %+v, want %+v", name, res.Stats, want.stats)
		}
	}
	for _, par := range []int{1, 4} {
		e, _, _ := newTestEngine(t, 3000)
		e.Parallelism = par
		if err := e.RegisterUDF(UDF{Name: "rich", Body: pure(func(v table.Value) bool {
			return v.(float64) > 80000
		})}); err != nil {
			t.Fatal(err)
		}
		q := Query{
			Table: "loans", Predicates: []Conjunct{
				{UDFName: "good_credit", UDFArg: "id", Want: true},
				{UDFName: "rich", UDFArg: "income", Want: true},
			},
			Approx: approx(0.75, 0.75, 0.8), GroupOn: "grade",
		}
		res, err := e.ExecuteContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "approx two-pred", res, approxGold)

		// A follow-up single-predicate query on the same engine pins the
		// statement ordinal: if the conjunction path took one extra (or one
		// fewer), this diverges.
		res2, err := e.ExecuteContext(context.Background(), Query{
			Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}},
			Approx: approx(0.8, 0.8, 0.8), GroupOn: "grade",
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, "follow-up single-pred", res2, followGold)

		// Exact conjunction on a fresh engine (the warm cache above would
		// change the accounting).
		e2, _, _ := newTestEngine(t, 3000)
		e2.Parallelism = par
		if err := e2.RegisterUDF(UDF{Name: "rich", Body: pure(func(v table.Value) bool {
			return v.(float64) > 80000
		})}); err != nil {
			t.Fatal(err)
		}
		qe := q
		qe.Approx = nil
		qe.GroupOn = ""
		resE, err := e2.ExecuteContext(context.Background(), qe)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "exact two-pred", resE, exactGold)
	}
}
