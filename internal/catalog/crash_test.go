package catalog

import (
	"bytes"
	"fmt"
	"maps"
	"path"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// crashDir is where the crash tests keep the catalog. Its parent exists
// and is durable; Open creates the catalog directory itself.
const crashDir = "/data/cat"

var (
	crashSnap = path.Join(crashDir, "catalog.snap")
	crashLog  = path.Join(crashDir, "catalog.log")
)

// crashOracle follows a workload's calls and their results, and says what
// a catalog reopened after a crash may and must hold. A fact is one
// verdict or column memo, keyed by its rendering.
type crashOracle struct {
	added   map[string]bool // every fact the workload added
	live    []fact          // added and not invalidated since
	durable map[string]bool // reported durable by a Flush or Compact that returned nil
	undone  map[string]bool // dropped by an InvalidateUDF that returned nil
}

type fact struct{ udf, key string }

func newCrashOracle() *crashOracle {
	return &crashOracle{added: map[string]bool{}, durable: map[string]bool{}, undone: map[string]bool{}}
}

func outcomeFact(k OutcomeKey, row int, v bool) fact {
	return fact{k.UDF, fmt.Sprintf("outcome %s/%s/%s row %d = %t", k.Table, k.UDF, k.Column, row, v)}
}

func columnFact(key, udf, chosen string) fact {
	return fact{udf, fmt.Sprintf("column %s = %s (udf %s)", key, chosen, udf)}
}

// facts renders everything c holds, sorted.
func facts(c *Catalog) []string {
	var out []string
	for k, set := range c.outcomes {
		for row, v := range set.all() {
			out = append(out, outcomeFact(k, row, v).key)
		}
	}
	for key, ch := range c.columns {
		out = append(out, columnFact(key, ch.udf, ch.chosen).key)
	}
	sort.Strings(out)
	return out
}

func (o *crashOracle) add(fs ...fact) {
	for _, f := range fs {
		o.added[f.key] = true
		delete(o.undone, f.key)
		o.live = append(o.live, f)
	}
}

// persisted records a Flush or Compact that returned nil.
func (o *crashOracle) persisted() {
	for _, f := range o.live {
		o.durable[f.key] = true
	}
}

// invalidated records an InvalidateUDF and whether it returned nil.
func (o *crashOracle) invalidated(udf string, ok bool) {
	kept := o.live[:0]
	for _, f := range o.live {
		if f.udf != udf {
			kept = append(kept, f)
			continue
		}
		delete(o.durable, f.key)
		if ok {
			o.undone[f.key] = true
		}
	}
	o.live = kept
}

var (
	crashA = OutcomeKey{Table: "loans", UDF: "good_credit", Column: "id"}
	crashB = OutcomeKey{Table: "loans", UDF: "other", Column: "id"}
	crashC = OutcomeKey{Table: "loans", UDF: "other", Column: "grade"}
)

// crashWorkload runs the scripted workload on fsys until it ends or fsys
// crashes, telling o each call and each result a crash cannot undo.
func crashWorkload(fsys *memFS, o *crashOracle) {
	c, err := openFS(fsys, crashDir)
	if err != nil || fsys.crashed {
		return
	}
	done := func(err error) bool {
		if err == nil && !fsys.crashed {
			o.persisted()
		}
		return fsys.crashed
	}
	outcomes := func(k OutcomeKey, m map[int]bool) {
		c.AddOutcomes(k, maps.All(m))
		for row, v := range m {
			o.add(outcomeFact(k, row, v))
		}
	}
	column := func(key, udf, chosen string) {
		c.SetChosenColumn(key, udf, chosen)
		o.add(columnFact(key, udf, chosen))
	}

	// Outcomes, then more outcomes and column memos, for two UDFs,
	// flushing twice: a torn second flush then lies between durable facts
	// and the tombstone that drops them.
	outcomes(crashA, map[int]bool{1: true, 2: false})
	outcomes(crashB, map[int]bool{1: false})
	if done(c.Flush()) {
		return
	}
	outcomes(crashA, map[int]bool{9: true})
	column("wk1", "good_credit", "grade")
	column("wk2", "other", "grade")
	if done(c.Flush()) {
		return
	}
	// Invalidate one UDF; its re-registered body flips row 1. Flush.
	err = c.InvalidateUDF("good_credit")
	o.invalidated("good_credit", err == nil && !fsys.crashed)
	if fsys.crashed {
		return
	}
	outcomes(crashA, map[int]bool{1: false})
	if done(c.Flush()) {
		return
	}
	if done(c.Compact()) {
		return
	}
	// More facts after the compaction, then flush and close.
	outcomes(crashB, map[int]bool{3: true})
	outcomes(crashC, map[int]bool{4: true, 5: false})
	column("wk3", "other", "segment")
	if done(c.Flush()) {
		return
	}
	done(c.Close())
}

// damagedTail reports whether a catalog file holds bytes past its valid
// prefix: an unrecognized header, or a tail that is not whole records.
func damagedTail(data []byte) bool {
	if len(data) == 0 {
		return false
	}
	if len(data) < headerLen || !bytes.Equal(data[:len(fileMagic)], []byte(fileMagic)) {
		return true
	}
	_, goodLen, _ := parseRecords(data)
	return goodLen < len(data)
}

// checkReopen opens the catalog a crash left on disk and checks it
// against o, then reopens it once more.
func checkReopen(disk *memFS, o *crashOracle) error {
	snap, _ := disk.get(crashSnap)
	logData, _ := disk.get(crashLog)
	if damagedTail(snap) {
		return fmt.Errorf("the snapshot has a damaged tail: it was not replaced atomically")
	}
	wantCut := damagedTail(logData)

	c, err := openFS(disk, crashDir)
	if err != nil {
		return fmt.Errorf("open: %v", err)
	}
	got := facts(c)
	rec := c.Recovery()
	c.Close()
	have := map[string]bool{}
	for _, f := range got {
		have[f] = true
		if !o.added[f] {
			return fmt.Errorf("%s was never added", f)
		}
		if o.undone[f] {
			return fmt.Errorf("%s is back after its UDF's invalidation returned nil", f)
		}
	}
	var missing []string
	for f := range o.durable {
		if !have[f] {
			missing = append(missing, f)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("%d facts reported durable are lost, e.g. %s", len(missing), missing[0])
	}
	if rec.Truncated != wantCut {
		return fmt.Errorf("Recovery().Truncated = %t, but the log's tail damaged = %t (%q)", rec.Truncated, wantCut, rec.Note)
	}

	c2, err := openFS(disk, crashDir)
	if err != nil {
		return fmt.Errorf("second open: %v", err)
	}
	defer c2.Close()
	if again := facts(c2); !reflect.DeepEqual(again, got) {
		return fmt.Errorf("second open holds %d facts, the first %d", len(again), len(got))
	}
	if rec := c2.Recovery(); rec.Truncated {
		return fmt.Errorf("second open repaired again: %s", rec.Note)
	}
	return nil
}

// TestCrashAtEveryFileOperation runs a scripted workload (open; add
// outcomes, flush; add outcomes and column memos, flush; invalidate a UDF,
// flush; compact; add more, flush; close) over memFS. It crashes the
// workload after each file operation in turn, and separately makes each
// operation fail and then crashes after each later one and at the end.
// For every disk the crash model allows it reopens the catalog and checks
// that no verdict appears that was never added, that every fact a Flush
// or Compact reported durable is present, that an invalidation that
// returned nil is never undone, that Recovery().Truncated is set exactly
// when the log's tail was damaged, and that a second open is a fixed
// point.
//
// Each of these seeded violations fails it:
//   - W1: the snapshot is written in place instead of tmp + rename;
//   - W2: the log is opened with O_TRUNC instead of O_APPEND;
//   - W3: the tmp file is not synced before the rename;
//   - W4: Compact truncates the log before writing the snapshot;
//   - W5: appendLocked does not truncate a failed write back to goodLen,
//     so torn bytes precede a later tombstone and hide it;
//   - writeSnapshot ignores a failed directory sync, so Compact empties
//     the log of facts a crash can take from the snapshot;
//   - Open does not sync the directories whose entries it created, so
//     the log of a new catalog, or the catalog directory itself, can
//     vanish with every flushed fact.
func TestCrashAtEveryFileOperation(t *testing.T) {
	// run returns the workload's filesystem and oracle when call failAt
	// fails and the workload crashes after call crashAfter (0: neither).
	run := func(failAt, crashAfter int) (*memFS, *crashOracle) {
		fsys := newMemFS("/data")
		fsys.failAt, fsys.crashAfter = failAt, crashAfter
		o := newCrashOracle()
		crashWorkload(fsys, o)
		return fsys, o
	}
	disks, failures := 0, 0
	check := func(scenario string, fsys *memFS, o *crashOracle) {
		fsys.crashDisks(func(desc string, disk *memFS) {
			disks++
			if err := checkReopen(disk, o); err != nil {
				if failures++; failures <= 10 {
					t.Errorf("%s; disk: %s:\n\t%v", scenario, desc, err)
				}
			}
		})
	}
	clean, _ := run(0, 0)
	for k := 1; k <= clean.calls; k++ {
		fsys, o := run(0, k)
		check(fmt.Sprintf("crash after call %d (%s)", k, fsys.trace[k-1]), fsys, o)
	}
	runs := clean.calls
	for k := 1; k <= clean.calls; k++ {
		failed, o := run(k, 0)
		fails := fmt.Sprintf("call %d (%s) fails", k, failed.trace[k-1])
		check(fails+", crash at the end", failed, o)
		for j := k; j <= failed.calls; j++ {
			fsys, o := run(k, j)
			check(fmt.Sprintf("%s, crash after call %d (%s)", fails, j, fsys.trace[j-1]), fsys, o)
			runs++
		}
		runs++
	}
	if failures > 10 {
		t.Errorf("... and %d more failing disks", failures-10)
	}
	t.Logf("%d file operations, %d runs, %d distinct disks reopened", clean.calls, runs, disks)
}

// FuzzOpen opens a catalog over arbitrary snapshot and log bytes, in either
// format version it reads. Open must not panic and refuses only a newer
// (or unknown) format. Nothing past the first
// damaged record may be applied: a valid record appended after the damage
// changes nothing. A second open must hold the same facts and leave the
// log as the first left it.
func FuzzOpen(f *testing.F) {
	seed := newMemFS("/data")
	crashWorkload(seed, newCrashOracle())
	snap, _ := seed.get(crashSnap)
	logData, _ := seed.get(crashLog)
	f.Add(snap, logData)
	f.Add([]byte(nil), logData[:len(logData)-3])
	f.Add(snap[:len(snap)/2], logData)
	f.Add([]byte("PREDCAT\x01"), []byte("PRED"))
	f.Add([]byte(nil), []byte("not a catalog at all"))
	f.Add(snap, append(bytes.Clone(logData), frame(legacySamples)...))
	f.Add(v1File(v1Snap), v1File(v1Log))
	// A version-2 log whose outcome record checksums but does not decode.
	damaged := func(gaps, bits []byte) []byte {
		var b bytes.Buffer
		b.WriteString(fileMagic + "\x02")
		if err := writeRecord(&b, record{Kind: kindOutcomes, Table: "t", UDF: "u", Column: "c", Gaps: gaps, Bits: bits}); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	f.Add(snap, damaged(append(bytes.Repeat([]byte{0x80}, 10), 1), []byte{1})) // overlong uvarint
	f.Add(snap, damaged([]byte{1, 0}, []byte{3}))                              // zero gap
	f.Add(snap, damaged(bytes.Repeat([]byte{1}, 9), []byte{0xff}))             // bits cut short

	var extra bytes.Buffer
	if err := writeRecord(&extra, outcomeRecord(OutcomeKey{Table: "t", UDF: "u", Column: "c"}, verdicts{rows: []int{7}, bits: []byte{1}})); err != nil {
		f.Fatal(err)
	}
	open := func(snap, logData []byte) (*memFS, []string, Recovery, error) {
		disk := newMemFS(crashDir)
		if len(snap) > 0 {
			disk.put(crashSnap, snap)
		}
		if len(logData) > 0 {
			disk.put(crashLog, logData)
		}
		c, err := openFS(disk, crashDir)
		if err != nil {
			return disk, nil, Recovery{}, err
		}
		defer c.Close()
		return disk, facts(c), c.Recovery(), nil
	}
	f.Fuzz(func(t *testing.T, snap, logData []byte) {
		disk, got, rec, err := open(snap, logData)
		if err != nil {
			if !strings.Contains(err.Error(), "format version") {
				t.Fatalf("open: %v", err)
			}
			return
		}
		repaired, _ := disk.get(crashLog)
		repaired = bytes.Clone(repaired)
		c, err := openFS(disk, crashDir)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		again := facts(c)
		c.Close()
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("second open holds %v, the first %v", again, got)
		}
		if after, _ := disk.get(crashLog); !bytes.Equal(after, repaired) {
			t.Fatalf("second open repaired the log again: %q -> %q", repaired, after)
		}
		// Append a valid record to each damaged file that has a valid
		// header: it lies past the damage, so it must change nothing.
		grown := func(b []byte) []byte { return append(bytes.Clone(b), extra.Bytes()...) }
		damaged := func(name string, b []byte) bool {
			return strings.Contains(rec.Note, name+": ") && len(b) >= headerLen && bytes.HasPrefix(b, []byte(fileMagic))
		}
		for _, tc := range []struct {
			name       string
			on         bool
			snap, data []byte
		}{
			{"catalog.snap", damaged("catalog.snap", snap), grown(snap), logData},
			{"catalog.log", damaged("catalog.log", logData), snap, grown(logData)},
		} {
			if !tc.on {
				continue
			}
			if _, more, _, err := open(tc.snap, tc.data); err != nil || !reflect.DeepEqual(more, got) {
				t.Fatalf("a record appended past the damage in %s was applied: %v, %v (was %v)", tc.name, err, more, got)
			}
		}
	})
}
