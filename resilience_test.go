// Acceptance tests for resilient UDF invocation as seen through the public
// facade: a seeded chaos workload (transient errors, latency spikes, a
// panicking UDF) completes under the degrade policy with correct surviving
// rows and bit-identical output at any parallelism; the same workload under
// the fail policy surfaces a typed error; cancellation during a retry
// backoff aborts promptly without poisoning state; and a crash-torn catalog
// tail after a retry-heavy workload recovers with zero synthetic verdicts.
package predeval_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	predeval "repro"
	"repro/internal/resilience"
)

// chaosDB builds a fresh DB over the loans fixture whose good_credit UDF
// runs behind the given seeded chaos schedule. Identical inputs build
// byte-identical worlds, so two DBs at different parallelism levels are
// comparable bit for bit.
func chaosDB(t testing.TB, n int, parallelism int, cfg resilience.ChaosConfig, policy string) *predeval.DB {
	t.Helper()
	csv, truth := loansCSV(n, 1)
	db := predeval.Open(7)
	db.SetParallelism(parallelism)
	if err := db.LoadCSV("loans", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	if err := db.SetFailurePolicy(policy); err != nil {
		t.Fatal(err)
	}
	db.SetRetryPolicy(resilience.Policy{
		MaxAttempts: 3,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	})
	chaos := resilience.NewChaos(cfg)
	err := db.RegisterUDFErr("good_credit", chaos.Wrap(func(_ context.Context, v any) (bool, error) {
		return truth[v.(int64)], nil
	}), 3)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// acceptanceChaos is the issue's acceptance schedule: ~10% transient
// errors per attempt, occasional latency spikes, and a persistently
// panicking UDF body on a few values (the id column is distinct per row,
// as the chaos determinism contract requires).
var acceptanceChaos = resilience.ChaosConfig{
	Seed:        1234,
	ErrorRate:   0.10,
	PanicRate:   0.01,
	Latency:     200 * time.Microsecond,
	LatencyRate: 0.05,
}

func TestChaosAcceptanceDegrade(t *testing.T) {
	const n = 600
	_, truth := loansCSV(n, 1)
	run := func(parallelism int) snapshot {
		db := chaosDB(t, n, parallelism, acceptanceChaos, "degrade")
		rows, err := db.QueryContext(context.Background(),
			"SELECT id FROM loans WHERE good_credit(id) = 1")
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return snap(rows)
	}

	s1 := run(1)
	s8 := run(8)
	if !reflect.DeepEqual(s1, s8) {
		t.Fatalf("chaos run not bit-identical across parallelism:\n p=1: ids=%d stats=%+v\n p=8: ids=%d stats=%+v",
			len(s1.IDs), s1.Stats, len(s8.IDs), s8.Stats)
	}

	st := s1.Stats
	if !st.Degraded {
		t.Error("result not marked degraded despite injected failures")
	}
	if st.FailedRows == 0 {
		t.Error("FailedRows = 0: the panicking values should have failed")
	}
	if st.Retries == 0 {
		t.Error("Retries = 0: 10% transient errors should have triggered retries")
	}

	// Surviving rows are correct: no false positives, and the only
	// truth-true rows missing are the failed ones.
	want := 0
	for _, v := range truth {
		if v {
			want++
		}
	}
	for _, id := range s1.IDs {
		if !truth[int64(id)] {
			t.Fatalf("row %d in the output but truth says false", id)
		}
	}
	if len(s1.IDs) < want-st.FailedRows || len(s1.IDs) > want {
		t.Errorf("got %d rows; want within [%d, %d] (%d truth-true, %d failed)",
			len(s1.IDs), want-st.FailedRows, want, want, st.FailedRows)
	}
}

func TestChaosAcceptanceFailPolicy(t *testing.T) {
	db := chaosDB(t, 600, 8, acceptanceChaos, "fail")
	_, err := db.QueryContext(context.Background(),
		"SELECT id FROM loans WHERE good_credit(id) = 1")
	if err == nil {
		t.Fatal("want the chaos workload to fail the query under the fail policy")
	}
	var re *resilience.Error
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want a typed resilience error", err)
	}
	if !strings.Contains(err.Error(), "good_credit") {
		t.Errorf("error does not name the UDF: %v", err)
	}
	// The DB survives: set to degrade, it answers the same statement.
	if err := db.SetFailurePolicy("degrade"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(context.Background(),
		"SELECT id FROM loans WHERE good_credit(id) = 1")
	if err != nil {
		t.Fatalf("post-failure degrade query: %v", err)
	}
	if rows.Len() == 0 {
		t.Error("post-failure degrade query returned nothing")
	}
}

// TestRegisterUDFErrKeepsErrorClass: the facade hands a body's error to
// the engine's one classification site unchanged, so its class decides
// retries as DB.RegisterUDFErr documents — a typed Permanent error fails
// the row at once, a plain error is Transient and retried (engine
// TestFailureClassification pins every other failure source). Seed it
// catches: RegisterUDFErr re-wrapping body errors untyped, after which a
// Permanent row is retried.
func TestRegisterUDFErrKeepsErrorClass(t *testing.T) {
	cases := []struct {
		name    string
		err     error
		kind    resilience.Kind
		retries int
	}{
		{"permanent", resilience.New(resilience.Permanent, "udf", errors.New("bad input")), resilience.Permanent, 0},
		{"plain", errors.New("service said no"), resilience.Transient, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(policy string) (*predeval.Rows, error) {
				csv, truth := loansCSV(64, 1)
				db := predeval.Open(7)
				if err := db.LoadCSV("loans", strings.NewReader(csv)); err != nil {
					t.Fatal(err)
				}
				if err := db.SetFailurePolicy(policy); err != nil {
					t.Fatal(err)
				}
				db.SetRetryPolicy(resilience.Policy{
					MaxAttempts: 3,
					Sleep:       func(context.Context, time.Duration) error { return nil },
				})
				if err := db.RegisterUDFErr("good_credit", func(_ context.Context, v any) (bool, error) {
					if v.(int64) == 17 {
						return false, c.err
					}
					return truth[v.(int64)], nil
				}, 3); err != nil {
					t.Fatal(err)
				}
				return db.QueryContext(context.Background(),
					"SELECT id FROM loans WHERE good_credit(id) = 1")
			}
			if _, err := run("fail"); err == nil || resilience.Classify(err) != c.kind {
				t.Errorf("fail policy: err = %v, want it classified %v", err, c.kind)
			}
			rows, err := run("degrade")
			if err != nil {
				t.Fatal(err)
			}
			if st := rows.Stats(); st.FailedRows != 1 || st.Retries != c.retries {
				t.Errorf("degrade policy: FailedRows %d, Retries %d; want 1, %d", st.FailedRows, st.Retries, c.retries)
			}
		})
	}
}

// TestCancellationDuringRetry (satellite): a context cancelled while a row
// sits in its retry backoff must abort the query promptly with ctx.Err() —
// not a row failure — and leave no partial state behind: the identical
// follow-up query on the now-healthy UDF answers exactly.
func TestCancellationDuringRetry(t *testing.T) {
	const n = 200
	csv, truth := loansCSV(n, 1)
	db := predeval.Open(7)
	if err := db.LoadCSV("loans", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	db.SetRetryPolicy(resilience.Policy{
		MaxAttempts: 5,
		Sleep: func(ctx context.Context, _ time.Duration) error {
			cancel() // the client gives up mid-backoff
			return ctx.Err()
		},
	})
	flaky := true
	if err := db.RegisterUDFErr("good_credit", func(_ context.Context, v any) (bool, error) {
		if flaky && v.(int64) == 42 {
			return false, errors.New("transient blip")
		}
		return truth[v.(int64)], nil
	}, 3); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, err := db.QueryContext(ctx, "SELECT id FROM loans WHERE good_credit(id) = 1")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (a batch abort, not a row failure)", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — the backoff was slept out", elapsed)
	}

	// No partial sampler/cache state: the healthy re-run is exact and
	// complete, including row 42.
	flaky = false
	rows, err := db.QueryContext(context.Background(),
		"SELECT id FROM loans WHERE good_credit(id) = 1")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, v := range truth {
		if v {
			want++
		}
	}
	if rows.Len() != want {
		t.Fatalf("re-run returned %d rows, want %d", rows.Len(), want)
	}
	if st := rows.Stats(); st.FailedRows != 0 || st.Degraded {
		t.Fatalf("re-run stats carry stale failures: %+v", st)
	}
}

// TestCatalogTornTailAfterRetryHeavyWorkload (satellite): run a workload
// where every row retries once and some rows fail permanently (degrade
// policy), flush it, then tear the final WAL record as a crash would. The
// reopened catalog must report the recovery, and no synthetic verdict —
// neither from the torn record nor from the failed rows — may survive: the
// healthy re-run answers ground truth exactly.
func TestCatalogTornTailAfterRetryHeavyWorkload(t *testing.T) {
	dir := t.TempDir()
	const n = 200
	csv, truth := loansCSV(n, 1)
	sql := "SELECT id FROM loans WHERE good_credit(id) = 1"

	db1 := predeval.Open(7)
	if err := db1.LoadCSV("loans", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	if err := db1.SetFailurePolicy("degrade"); err != nil {
		t.Fatal(err)
	}
	db1.SetRetryPolicy(resilience.Policy{
		MaxAttempts: 3,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	})
	attempts := make(map[int64]int) // parallelism 1 by default… but be safe
	db1.SetParallelism(1)
	if err := db1.RegisterUDFErr("good_credit", func(_ context.Context, v any) (bool, error) {
		id := v.(int64)
		if id%7 == 0 {
			return false, resilience.New(resilience.Permanent, "udf", errors.New("cursed"))
		}
		attempts[id]++
		if attempts[id] == 1 {
			return false, errors.New("first attempt always blips") // retry-heavy
		}
		return truth[id], nil
	}, 3); err != nil {
		t.Fatal(err)
	}
	if err := db1.OpenCatalog(dir); err != nil {
		t.Fatal(err)
	}
	rows1, err := db1.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	st1 := rows1.Stats()
	if st1.FailedRows == 0 || st1.Retries == 0 {
		t.Fatalf("workload not retry-heavy: %+v", st1)
	}
	if err := db1.FlushCatalog(); err != nil {
		t.Fatal(err)
	}
	if err := db1.CloseCatalog(); err != nil {
		t.Fatal(err)
	}

	// Tear the final WAL record mid-write, as a crash during append would.
	logPath := filepath.Join(dir, "catalog.log")
	info, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	// Reopen with a healthy UDF. The recovery must be reported, and the
	// exact answer must match ground truth: any synthetic verdict persisted
	// for a failed row would silently exclude it here.
	db2 := predeval.Open(7)
	if err := db2.LoadCSV("loans", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	if err := db2.RegisterUDFErr("good_credit", func(_ context.Context, v any) (bool, error) {
		return truth[v.(int64)], nil
	}, 3); err != nil {
		t.Fatal(err)
	}
	if err := db2.OpenCatalog(dir); err != nil {
		t.Fatal(err)
	}
	defer db2.CloseCatalog()
	if rec := db2.Catalog().Recovery(); !rec.Truncated || rec.Note == "" {
		t.Fatalf("torn tail not reported: %+v", rec)
	}
	rows2, err := db2.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]bool)
	for id, v := range truth {
		if v {
			want[int(id)] = true
		}
	}
	if rows2.Len() != len(want) {
		t.Fatalf("recovered answer has %d rows, want %d — a synthetic verdict survived", rows2.Len(), len(want))
	}
	for _, id := range rows2.RowIDs() {
		if !want[id] {
			t.Fatalf("row %d in the recovered answer but truth says false", id)
		}
	}
	if st2 := rows2.Stats(); st2.FailedRows != 0 {
		t.Fatalf("healthy re-run reports %d failed rows", st2.FailedRows)
	}
}
