package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var okey = OutcomeKey{Table: "loans", UDF: "good_credit", Column: "id"}

func open(t *testing.T, dir string) *Catalog {
	t.Helper()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir)
	c.AddOutcomes(okey, maps.All(map[int]bool{1: true, 2: false, 7: true}))
	c.SetChosenColumn("wk1", "good_credit", "grade")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := open(t, dir)
	if got := maps.Collect(c2.Outcomes(okey)); !reflect.DeepEqual(got, map[int]bool{1: true, 2: false, 7: true}) {
		t.Fatalf("outcomes after reopen: %v", got)
	}
	if col, ok := c2.ChosenColumn("wk1"); !ok || col != "grade" {
		t.Fatalf("chosen column after reopen: %q %v", col, ok)
	}
	if rec := c2.Recovery(); rec.Truncated {
		t.Fatalf("clean reopen reported recovery: %+v", rec)
	}
	st := c2.Stats()
	if st.OutcomeRows != 3 || st.ColumnMemos != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestUnflushedFactsAreLost(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir)
	c.AddOutcomes(okey, maps.All(map[int]bool{1: true}))
	// No flush: simulate a crash by reopening the directory.
	c2 := open(t, dir)
	if got := maps.Collect(c2.Outcomes(okey)); len(got) != 0 {
		t.Fatalf("unflushed outcomes survived: %v", got)
	}
}

func TestDeltaFlushDoesNotGrowOnKnownFacts(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir)
	c.AddOutcomes(okey, maps.All(map[int]bool{1: true, 2: false}))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	size1 := fileSize(t, filepath.Join(dir, "catalog.log"))
	// Re-adding the same facts buffers nothing and Flush appends nothing.
	c.AddOutcomes(okey, maps.All(map[int]bool{1: true, 2: false}))
	if st := c.Stats(); st.PendingRecords != 0 {
		t.Fatalf("known facts buffered: %+v", st)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if size2 := fileSize(t, filepath.Join(dir, "catalog.log")); size2 != size1 {
		t.Fatalf("log grew from %d to %d on known facts", size1, size2)
	}
}

// TestCorruptTailTruncated flips a byte in the last log record: open must
// keep the records before it, report the recovery, truncate the tail, and
// leave the log appendable.
func TestCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir)
	c.AddOutcomes(okey, maps.All(map[int]bool{1: true}))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	goodLen := fileSize(t, filepath.Join(dir, "catalog.log"))
	c.AddOutcomes(okey, maps.All(map[int]bool{2: false}))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	logPath := filepath.Join(dir, "catalog.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // corrupt the second record's payload
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := open(t, dir)
	rec := c2.Recovery()
	if !rec.Truncated || rec.Note == "" {
		t.Fatalf("corruption not reported: %+v", rec)
	}
	if got := maps.Collect(c2.Outcomes(okey)); !reflect.DeepEqual(got, map[int]bool{1: true}) {
		t.Fatalf("good prefix lost or bad tail replayed: %v", got)
	}
	if size := fileSize(t, logPath); size != goodLen {
		t.Fatalf("log not truncated to good prefix: %d want %d", size, goodLen)
	}
	// The log must be appendable again, and the next open must be clean.
	c2.AddOutcomes(okey, maps.All(map[int]bool{3: true}))
	if err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	c3 := open(t, dir)
	if rec := c3.Recovery(); rec.Truncated {
		t.Fatalf("recovery persisted past repair: %+v", rec)
	}
	if got := maps.Collect(c3.Outcomes(okey)); !reflect.DeepEqual(got, map[int]bool{1: true, 3: true}) {
		t.Fatalf("outcomes after repair: %v", got)
	}
}

// TestTruncatedMidRecord cuts the log mid-payload, the exact shape a crash
// during append leaves behind.
func TestTruncatedMidRecord(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir)
	c.AddOutcomes(okey, maps.All(map[int]bool{1: true}))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	goodLen := fileSize(t, filepath.Join(dir, "catalog.log"))
	c.AddOutcomes(okey, maps.All(map[int]bool{2: true}))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	logPath := filepath.Join(dir, "catalog.log")
	if err := os.Truncate(logPath, goodLen+5); err != nil {
		t.Fatal(err)
	}
	c2 := open(t, dir)
	if rec := c2.Recovery(); !rec.Truncated {
		t.Fatal("mid-record truncation not detected")
	}
	if got := maps.Collect(c2.Outcomes(okey)); !reflect.DeepEqual(got, map[int]bool{1: true}) {
		t.Fatalf("outcomes after mid-record cut: %v", got)
	}
	if size := fileSize(t, logPath); size != goodLen {
		t.Fatalf("log not truncated: %d want %d", size, goodLen)
	}
}

// TestGarbageLogReset: a log whose header is unrecognizable cannot be
// trusted at all — it is reset, reported, and never replayed.
func TestGarbageLogReset(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "catalog.log")
	if err := os.WriteFile(logPath, []byte("not a catalog at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := open(t, dir)
	if rec := c.Recovery(); !rec.Truncated {
		t.Fatal("garbage log not reported")
	}
	if st := c.Stats(); st.OutcomeRows != 0 {
		t.Fatalf("garbage replayed: %+v", st)
	}
	c.AddOutcomes(okey, maps.All(map[int]bool{4: true}))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2 := open(t, dir)
	if got := maps.Collect(c2.Outcomes(okey)); !reflect.DeepEqual(got, map[int]bool{4: true}) {
		t.Fatalf("outcomes after reset: %v", got)
	}
}

func TestVersionMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir)
	c.AddOutcomes(okey, maps.All(map[int]bool{1: true}))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	logPath := filepath.Join(dir, "catalog.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(fileMagic)] = 99 // future version
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("future-version catalog opened silently")
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir)
	for i := 0; i < 50; i++ {
		c.AddOutcomes(okey, maps.All(map[int]bool{i: i%3 == 0}))
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	c.SetChosenColumn("wk", "good_credit", "grade")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	logBefore := fileSize(t, filepath.Join(dir, "catalog.log"))
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if logAfter := fileSize(t, filepath.Join(dir, "catalog.log")); logAfter >= logBefore {
		t.Fatalf("compaction did not shrink the log: %d -> %d", logBefore, logAfter)
	}
	// Deltas after compaction land in the fresh log and replay over the
	// snapshot on reopen.
	c.AddOutcomes(okey, maps.All(map[int]bool{1000: true}))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2 := open(t, dir)
	got := maps.Collect(c2.Outcomes(okey))
	if len(got) != 51 || !got[0] || got[1] || !got[1000] {
		t.Fatalf("state after compaction+reopen: %d rows, sample %v %v %v", len(got), got[0], got[1], got[1000])
	}
	if col, ok := c2.ChosenColumn("wk"); !ok || col != "grade" {
		t.Fatalf("column memo lost in compaction: %q %v", col, ok)
	}
}

// TestBytesFollowContents pins the catalog's byte order: log and snapshot
// records list their rows ascending, the snapshot lists outcome keys and
// column memos ascending, and so two catalogs fed the same
// facts in opposite orders compact to the same bytes. Ascending order is
// asserted outright: equal bytes alone can hide map order on small maps.
func TestBytesFollowContents(t *testing.T) {
	const n = 64
	rows := make(map[int]bool, n)
	for r := 0; r < n; r++ {
		rows[r*7] = r%3 == 0
	}
	records := func(fsys *memFS, p string) []record {
		recs, _, _, _, err := readRecordFile(fsys, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if !sort.IntsAreSorted(r.set.rows) {
				t.Fatalf("%s: %s record for %q lists rows out of order", p, r.Kind, r.UDF)
			}
		}
		return recs
	}
	build := func(desc bool) *memFS {
		fsys := newMemFS("/data")
		c, err := openFS(fsys, crashDir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%02d", i)
			if desc {
				k = fmt.Sprintf("k%02d", n-1-i)
			}
			c.AddOutcomes(OutcomeKey{Table: "t", UDF: k, Column: "id"}, maps.All(rows))
			c.SetChosenColumn(k, "u", "g")
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		records(fsys, c.logPath())
		if err := c.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return fsys
	}
	asc, desc := build(false), build(true)
	for _, name := range []string{"catalog.snap", "catalog.log"} {
		a, _ := asc.get(crashDir + "/" + name)
		d, _ := desc.get(crashDir + "/" + name)
		if !bytes.Equal(a, d) {
			t.Errorf("%s differs between ascending and descending insertion", name)
		}
	}
	keys := map[string][]string{}
	for _, r := range records(asc, crashDir+"/catalog.snap") {
		keys[r.Kind] = append(keys[r.Kind], r.UDF+r.Key)
	}
	for _, kind := range []string{kindOutcomes, kindColumn} {
		if len(keys[kind]) != n || !sort.StringsAreSorted(keys[kind]) {
			t.Errorf("snapshot %s keys %v, want %d in ascending order", kind, keys[kind], n)
		}
	}
}

// TestCrashMidCompactionReplayIdempotent simulates a crash between the
// snapshot rename and the log truncation: the stale log replays over the
// fresh snapshot without changing the final state.
func TestCrashMidCompactionReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir)
	c.AddOutcomes(okey, maps.All(map[int]bool{1: true, 2: false}))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Save the pre-compaction log, compact, then restore the stale log.
	logPath := filepath.Join(dir, "catalog.log")
	staleLog, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := os.WriteFile(logPath, staleLog, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := open(t, dir)
	if got := maps.Collect(c2.Outcomes(okey)); !reflect.DeepEqual(got, map[int]bool{1: true, 2: false}) {
		t.Fatalf("stale-log replay changed state: %v", got)
	}
}

func TestInvalidateUDFDurable(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir)
	other := OutcomeKey{Table: "loans", UDF: "other", Column: "id"}
	c.AddOutcomes(okey, maps.All(map[int]bool{1: true}))
	c.AddOutcomes(other, maps.All(map[int]bool{1: false}))
	c.SetChosenColumn("wk", "good_credit", "grade")
	c.SetChosenColumn("wk-other", "other", "grade")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Buffer an unflushed fact for the doomed UDF too: it must not be
	// flushed after the tombstone.
	c.AddOutcomes(okey, maps.All(map[int]bool{5: true}))
	if err := c.InvalidateUDF("good_credit"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2 := open(t, dir)
	if got := maps.Collect(c2.Outcomes(okey)); len(got) != 0 {
		t.Fatalf("invalidated outcomes survived: %v", got)
	}
	if _, ok := c2.ChosenColumn("wk"); ok {
		t.Fatal("invalidated column memo survived")
	}
	if got := maps.Collect(c2.Outcomes(other)); !reflect.DeepEqual(got, map[int]bool{1: false}) {
		t.Fatalf("unrelated UDF was dropped: %v", got)
	}
	if col, ok := c2.ChosenColumn("wk-other"); !ok || col != "grade" {
		t.Fatalf("unrelated column memo lost: %q %v", col, ok)
	}
}

// TestWantFoldingAcrossVerdictChange exercises diffRows' last-write-wins
// path: after invalidation a row may legitimately flip verdict.
func TestVerdictFlipAfterInvalidation(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir)
	c.AddOutcomes(okey, maps.All(map[int]bool{1: true}))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.InvalidateUDF("good_credit"); err != nil {
		t.Fatal(err)
	}
	c.AddOutcomes(okey, maps.All(map[int]bool{1: false}))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2 := open(t, dir)
	if got := maps.Collect(c2.Outcomes(okey)); !reflect.DeepEqual(got, map[int]bool{1: false}) {
		t.Fatalf("flipped verdict lost: %v", got)
	}
}

func TestClosedCatalogRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c.AddOutcomes(okey, maps.All(map[int]bool{1: true}))
	if err := c.Flush(); err == nil {
		t.Fatal("flush on closed catalog succeeded")
	}
	if err := c.Compact(); err == nil {
		t.Fatal("compact on closed catalog succeeded")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// legacySamples is a "samples" record as older builds wrote it: the rows
// one statement's sampler drew, kept as evidence for the next statement
// grouped on the same column under the same filters.
const legacySamples = `{"k":"samples","t":"loans","u":"good_credit","c":"id","g":"grade","f":"purpose=car","r":[2,9],"b":"01"}`

// frame wraps a record payload in its length and checksum.
func frame(payload string) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum([]byte(payload), crcTable))
	return append(hdr[:], payload...)
}

// TestOlderSampleRecordsIgnored: a catalog whose log holds a samples
// record from an older build opens cleanly with the same outcomes and
// memos as one without it, and Compact leaves the record out of the
// snapshot.
func TestOlderSampleRecordsIgnored(t *testing.T) {
	plain, older := t.TempDir(), t.TempDir()
	c := open(t, plain)
	c.AddOutcomes(okey, maps.All(map[int]bool{1: true, 2: false}))
	c.SetChosenColumn("wk", "good_credit", "grade")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(plain, "catalog.log"))
	if err != nil {
		t.Fatal(err)
	}
	withSamples := append(bytes.Clone(data[:headerLen]), frame(legacySamples)...)
	withSamples = append(withSamples, data[headerLen:]...)
	if err := os.WriteFile(filepath.Join(older, "catalog.log"), withSamples, 0o644); err != nil {
		t.Fatal(err)
	}
	state := func(c *Catalog) string {
		col, ok := c.ChosenColumn("wk")
		st := c.Stats()
		return fmt.Sprintf("outcomes %v, memo %q %t, %d verdicts, %d memos", maps.Collect(c.Outcomes(okey)), col, ok, st.OutcomeRows, st.ColumnMemos)
	}
	want := state(open(t, plain))
	c = open(t, older)
	if rec := c.Recovery(); rec.Truncated {
		t.Fatalf("an older samples record was taken for damage: %s", rec.Note)
	}
	if got := state(c); got != want {
		t.Fatalf("with an older samples record: %s, want %s", got, want)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, _, _, err := readRecordFile(osFS{}, filepath.Join(older, "catalog.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Kind != kindOutcomes && r.Kind != kindColumn {
			t.Fatalf("the compacted snapshot kept a %q record", r.Kind)
		}
	}
	if got := state(open(t, older)); got != want {
		t.Fatalf("after Compact: %s, want %s", got, want)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// v1Payloads are records as format version 1 wrote them: outcome rows as
// decimal ids, verdicts as '0'/'1' bytes. The log's outcome record lists
// its rows out of order and flips row 7.
var (
	v1Snap = []string{
		`{"k":"outcomes","t":"loans","u":"good_credit","c":"id","r":[1,2,7],"b":"101"}`,
		`{"k":"outcomes","t":"loans","u":"other","c":"id","r":[1],"b":"0"}`,
		`{"k":"column","w":"wk","u":"good_credit","n":"grade"}`,
	}
	v1Log = []string{
		`{"k":"outcomes","t":"loans","u":"good_credit","c":"id","r":[9,7],"b":"10"}`,
		`{"k":"invalidate-udf","u":"other"}`,
	}
)

// v1File is a version-1 catalog file holding payloads.
func v1File(payloads []string) []byte {
	data := []byte(fileMagic + "\x01")
	for _, p := range payloads {
		data = append(data, frame(p)...)
	}
	return data
}

// touching lists the writes, syncs, renames, truncations and removals
// among memFS calls.
func touching(calls []string) []string {
	var out []string
	for _, c := range calls {
		for _, op := range []string{"write ", "sync", "rename ", "truncate ", "remove "} {
			if strings.HasPrefix(c, op) {
				out = append(out, c)
			}
		}
	}
	return out
}

// TestV1CatalogReadAndRewritten: a version-1 directory opens with the facts
// its records hold, and its first compaction and close leave a version-2
// snapshot and log that reopen to the same facts and need no compaction.
// A version-1 log that holds only its header is rewritten too.
func TestV1CatalogReadAndRewritten(t *testing.T) {
	for _, tc := range []struct {
		name string
		log  []string
		want []string
	}{
		{"snapshot and log", v1Log, []string{
			outcomeFact(okey, 1, true).key,
			outcomeFact(okey, 2, false).key,
			outcomeFact(okey, 7, false).key,
			outcomeFact(okey, 9, true).key,
		}},
		{"header-only log", nil, []string{
			outcomeFact(okey, 1, true).key,
			outcomeFact(okey, 2, false).key,
			outcomeFact(okey, 7, true).key,
			outcomeFact(OutcomeKey{Table: "loans", UDF: "other", Column: "id"}, 1, false).key,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := append(tc.want, columnFact("wk", "good_credit", "grade").key)
			sort.Strings(want)
			fsys := newMemFS(crashDir)
			fsys.put(crashSnap, v1File(v1Snap))
			fsys.put(crashLog, v1File(tc.log))
			c, err := openFS(fsys, crashDir)
			if err != nil {
				t.Fatal(err)
			}
			if rec := c.Recovery(); rec.Truncated {
				t.Fatalf("a version-1 catalog was taken for damage: %s", rec.Note)
			}
			if got := facts(c); !reflect.DeepEqual(got, want) {
				t.Fatalf("version-1 catalog opened with %v, want %v", got, want)
			}
			if err := c.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			for _, p := range []string{crashSnap, crashLog} {
				data, _ := fsys.get(p)
				if len(data) < headerLen || data[len(fileMagic)] != formatVersion {
					t.Fatalf("%s was not rewritten at version %d: %q", p, formatVersion, data)
				}
			}
			recs, _, _, _, err := readRecordFile(fsys, crashSnap)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if r.V1Rows != nil || r.V1Bits != "" {
					t.Fatalf("the rewritten snapshot kept a version-1 record: %+v", r)
				}
			}
			c, err = openFS(fsys, crashDir)
			if err != nil {
				t.Fatal(err)
			}
			if got := facts(c); !reflect.DeepEqual(got, want) {
				t.Fatalf("after the rewrite: %v, want %v", got, want)
			}
			mark := len(fsys.trace)
			if err := c.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if calls := touching(fsys.trace[mark:]); len(calls) != 0 {
				t.Fatalf("the rewritten catalog compacted again: %v", calls)
			}
		})
	}
}

// TestCompactRewritesDamagedSnapshot: a snapshot whose tail Open cut past
// is not the state's clean copy, so Compact rewrites it even when nothing
// else changed.
func TestCompactRewritesDamagedSnapshot(t *testing.T) {
	fsys := newMemFS("/data")
	c, err := openFS(fsys, crashDir)
	if err != nil {
		t.Fatal(err)
	}
	c.AddOutcomes(okey, maps.All(map[int]bool{1: true}))
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	snap, _ := fsys.get(crashSnap)
	fsys.put(crashSnap, append(bytes.Clone(snap), "torn"...))
	c, err = openFS(fsys, crashDir)
	if err != nil {
		t.Fatal(err)
	}
	if rec := c.Recovery(); !rec.Truncated {
		t.Fatal("the torn snapshot tail was not reported")
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := fsys.get(crashSnap); !bytes.Equal(got, snap) {
		t.Fatalf("Compact left the snapshot as %q, want %q", got, snap)
	}
}

// TestWarmRestartTouchesNoFile: opening a compacted catalog, reading it,
// flushing, compacting and closing it writes, syncs, renames and
// truncates nothing. One new fact brings back the whole compaction: tmp,
// fsync, rename, directory fsync, log reset.
func TestWarmRestartTouchesNoFile(t *testing.T) {
	fsys := newMemFS("/data")
	c, err := openFS(fsys, crashDir)
	if err != nil {
		t.Fatal(err)
	}
	c.AddOutcomes(okey, maps.All(map[int]bool{1: true, 2: false, 40000: true}))
	c.SetChosenColumn("wk", "good_credit", "grade")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	mark := len(fsys.trace)
	c, err = openFS(fsys, crashDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := maps.Collect(c.Outcomes(okey)); len(got) != 3 {
		t.Fatalf("reopened with %v", got)
	}
	c.AddOutcomes(okey, maps.All(map[int]bool{2: false})) // known: no fact
	c.SetChosenColumn("wk", "good_credit", "grade")
	for _, step := range []func() error{c.Flush, c.Compact, c.Close} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if calls := touching(fsys.trace[mark:]); len(calls) != 0 {
		t.Fatalf("a warm restart touched files: %v", calls)
	}

	c, err = openFS(fsys, crashDir)
	if err != nil {
		t.Fatal(err)
	}
	c.AddOutcomes(okey, maps.All(map[int]bool{3: true}))
	mark = len(fsys.trace)
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, call := range fsys.trace[mark:] {
		if !strings.HasSuffix(call, "bytes to catalog.snap.tmp") {
			got = append(got, call)
		}
	}
	want := []string{
		"open catalog.snap.tmp",
		"sync catalog.snap.tmp",
		"rename catalog.snap.tmp to catalog.snap",
		"syncdir " + crashDir,
		"truncate open catalog.log to 0",
		fmt.Sprintf("write %d bytes to catalog.log", headerLen),
		"sync catalog.log",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compaction after a new fact made %q, want %q", got, want)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDamagedOutcomeRecords: an outcome record that checksums but does not
// decode to ascending, non-negative rows with one verdict each is damage:
// replay stops before it and applies none of its rows.
func TestDamagedOutcomeRecords(t *testing.T) {
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 1)
	for _, tc := range []struct {
		name string
		r    record
	}{
		{"overlong uvarint", record{Gaps: overlong, Bits: []byte{1}}},
		{"incomplete uvarint", record{Gaps: []byte{0x80}}},
		{"zero first gap", record{Gaps: []byte{0}, Bits: []byte{1}}},
		{"zero gap", record{Gaps: []byte{1, 0}, Bits: []byte{3}}},
		{"bits shorter than the rows", record{Gaps: bytes.Repeat([]byte{1}, 9), Bits: []byte{0xff}}},
		{"bits longer than the rows", record{Gaps: []byte{1}, Bits: []byte{1, 0}}},
		{"bits without rows", record{Bits: []byte{1}}},
		{"row past the largest int", record{Gaps: binary.AppendUvarint(binary.AppendUvarint(nil, math.MaxInt+1), 1), Bits: []byte{3}}},
		{"both encodings", record{Gaps: []byte{1}, Bits: []byte{1}, V1Rows: []int{0}, V1Bits: "1"}},
		{"version 1, negative row", record{V1Rows: []int{5, -3}, V1Bits: "11"}},
		{"version 1, bits shorter than the rows", record{V1Rows: []int{1, 2}, V1Bits: "1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.r
			r.Kind, r.Table, r.UDF, r.Column = kindOutcomes, okey.Table, okey.UDF, okey.Column
			var buf bytes.Buffer
			buf.WriteString(fileMagic + "\x02")
			if err := writeRecord(&buf, outcomeRecord(okey, verdicts{rows: []int{0}, bits: []byte{1}})); err != nil {
				t.Fatal(err)
			}
			good := buf.Len()
			if err := writeRecord(&buf, r); err != nil {
				t.Fatal(err)
			}
			recs, goodLen, note := parseRecords(buf.Bytes())
			if len(recs) != 1 || goodLen != good || note == "" {
				t.Fatalf("parsed %d records, valid prefix %d of %d (%q); want the damaged record cut", len(recs), goodLen, buf.Len(), note)
			}
		})
	}
}

// TestVerdictsRoundTrip: the gap encoding decodes to the rows it encoded,
// from row 0 to the largest int, and collect sorts, dedupes (the last
// verdict wins) and drops negative rows.
func TestVerdictsRoundTrip(t *testing.T) {
	in := map[int]bool{0: true, 1: false, 127: true, 128: true, 1 << 20: false, 1<<20 + 16384: true, math.MaxInt - 1: false, math.MaxInt: true, -7: true}
	s := collect(maps.All(in))
	delete(in, -7)
	if got := maps.Collect(s.all()); !reflect.DeepEqual(got, in) {
		t.Fatalf("collect: %v, want %v", got, in)
	}
	if !sort.IntsAreSorted(s.rows) {
		t.Fatalf("collect left rows out of order: %v", s.rows)
	}
	back, ok := decodeVerdicts(s.gaps(), s.bits)
	if !ok || !reflect.DeepEqual(back.rows, s.rows) || !reflect.DeepEqual(maps.Collect(back.all()), in) {
		t.Fatalf("round trip: %v %v, want %v", ok, maps.Collect(back.all()), in)
	}
	dup := collect(func(yield func(int, bool) bool) {
		_ = yield(5, true) && yield(3, true) && yield(5, false)
	})
	if got := maps.Collect(dup.all()); !reflect.DeepEqual(got, map[int]bool{3: true, 5: false}) {
		t.Fatalf("a later verdict for a row must win: %v", got)
	}
}
