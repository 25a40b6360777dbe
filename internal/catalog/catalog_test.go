package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
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
	c.AddOutcomes(okey, map[int]bool{1: true, 2: false, 7: true})
	c.SetChosenColumn("wk1", "good_credit", "grade")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := open(t, dir)
	if got := c2.Outcomes(okey); !reflect.DeepEqual(got, map[int]bool{1: true, 2: false, 7: true}) {
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
	c.AddOutcomes(okey, map[int]bool{1: true})
	// No flush: simulate a crash by reopening the directory.
	c2 := open(t, dir)
	if got := c2.Outcomes(okey); got != nil {
		t.Fatalf("unflushed outcomes survived: %v", got)
	}
}

func TestDeltaFlushDoesNotGrowOnKnownFacts(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir)
	c.AddOutcomes(okey, map[int]bool{1: true, 2: false})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	size1 := fileSize(t, filepath.Join(dir, "catalog.log"))
	// Re-adding the same facts buffers nothing and Flush appends nothing.
	c.AddOutcomes(okey, map[int]bool{1: true, 2: false})
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
	c.AddOutcomes(okey, map[int]bool{1: true})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	goodLen := fileSize(t, filepath.Join(dir, "catalog.log"))
	c.AddOutcomes(okey, map[int]bool{2: false})
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
	if got := c2.Outcomes(okey); !reflect.DeepEqual(got, map[int]bool{1: true}) {
		t.Fatalf("good prefix lost or bad tail replayed: %v", got)
	}
	if size := fileSize(t, logPath); size != goodLen {
		t.Fatalf("log not truncated to good prefix: %d want %d", size, goodLen)
	}
	// The log must be appendable again, and the next open must be clean.
	c2.AddOutcomes(okey, map[int]bool{3: true})
	if err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	c3 := open(t, dir)
	if rec := c3.Recovery(); rec.Truncated {
		t.Fatalf("recovery persisted past repair: %+v", rec)
	}
	if got := c3.Outcomes(okey); !reflect.DeepEqual(got, map[int]bool{1: true, 3: true}) {
		t.Fatalf("outcomes after repair: %v", got)
	}
}

// TestTruncatedMidRecord cuts the log mid-payload, the exact shape a crash
// during append leaves behind.
func TestTruncatedMidRecord(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir)
	c.AddOutcomes(okey, map[int]bool{1: true})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	goodLen := fileSize(t, filepath.Join(dir, "catalog.log"))
	c.AddOutcomes(okey, map[int]bool{2: true})
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
	if got := c2.Outcomes(okey); !reflect.DeepEqual(got, map[int]bool{1: true}) {
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
	c.AddOutcomes(okey, map[int]bool{4: true})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2 := open(t, dir)
	if got := c2.Outcomes(okey); !reflect.DeepEqual(got, map[int]bool{4: true}) {
		t.Fatalf("outcomes after reset: %v", got)
	}
}

func TestVersionMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir)
	c.AddOutcomes(okey, map[int]bool{1: true})
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
		c.AddOutcomes(okey, map[int]bool{i: i%3 == 0})
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
	c.AddOutcomes(okey, map[int]bool{1000: true})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2 := open(t, dir)
	got := c2.Outcomes(okey)
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
		recs, _, _, err := readRecordFile(fsys, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if !sort.IntsAreSorted(r.Rows) {
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
			c.AddOutcomes(OutcomeKey{Table: "t", UDF: k, Column: "id"}, rows)
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
	c.AddOutcomes(okey, map[int]bool{1: true, 2: false})
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
	if got := c2.Outcomes(okey); !reflect.DeepEqual(got, map[int]bool{1: true, 2: false}) {
		t.Fatalf("stale-log replay changed state: %v", got)
	}
}

func TestInvalidateUDFDurable(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir)
	other := OutcomeKey{Table: "loans", UDF: "other", Column: "id"}
	c.AddOutcomes(okey, map[int]bool{1: true})
	c.AddOutcomes(other, map[int]bool{1: false})
	c.SetChosenColumn("wk", "good_credit", "grade")
	c.SetChosenColumn("wk-other", "other", "grade")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Buffer an unflushed fact for the doomed UDF too: it must not be
	// flushed after the tombstone.
	c.AddOutcomes(okey, map[int]bool{5: true})
	if err := c.InvalidateUDF("good_credit"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2 := open(t, dir)
	if got := c2.Outcomes(okey); got != nil {
		t.Fatalf("invalidated outcomes survived: %v", got)
	}
	if _, ok := c2.ChosenColumn("wk"); ok {
		t.Fatal("invalidated column memo survived")
	}
	if got := c2.Outcomes(other); !reflect.DeepEqual(got, map[int]bool{1: false}) {
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
	c.AddOutcomes(okey, map[int]bool{1: true})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.InvalidateUDF("good_credit"); err != nil {
		t.Fatal(err)
	}
	c.AddOutcomes(okey, map[int]bool{1: false})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2 := open(t, dir)
	if got := c2.Outcomes(okey); !reflect.DeepEqual(got, map[int]bool{1: false}) {
		t.Fatalf("flipped verdict lost: %v", got)
	}
}

func TestClosedCatalogRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c.AddOutcomes(okey, map[int]bool{1: true})
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
	c.AddOutcomes(okey, map[int]bool{1: true, 2: false})
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
		return fmt.Sprintf("outcomes %v, memo %q %t, %d verdicts, %d memos", c.Outcomes(okey), col, ok, st.OutcomeRows, st.ColumnMemos)
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
	recs, _, _, err := readRecordFile(osFS{}, filepath.Join(older, "catalog.snap"))
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
