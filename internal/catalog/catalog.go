// Package catalog is the durable statistics and outcome store: a
// crash-safe, versioned on-disk catalog that persists the assets the
// engine pays for at query time — raw UDF verdicts per (table, UDF,
// column) and the correlated column chosen by the Section 4.4 discovery
// pass per workload key — so a process restart warm-starts from them
// instead of re-paying o_e.
//
// In memory each (table, UDF, column) key holds a dense verdict set: its
// rows ascending plus one verdict bit per row, sized by the verdicts it
// holds and never by the largest row id. The engine reads and adds
// verdicts as iter.Seq2[int, bool] in ascending row order.
//
// On disk a catalog directory holds two files:
//
//	catalog.snap   full-state snapshot (rewritten by Compact)
//	catalog.log    append-only delta log since the snapshot (Flush appends)
//
// Both are sequences of length-prefixed, CRC32-checksummed records behind
// a versioned magic header; an outcome record is the set's rows as uvarint
// gaps plus its packed verdict bits (wal.go). Format version 1 files are
// still read and are rewritten as version 2 by the next Compact, which
// touches no file when the snapshot already is the state. Open replays the
// snapshot and then the log;
// a truncated or corrupted tail is detected by checksum, reported, and
// cut off — the good prefix is kept and the damaged suffix is never
// replayed, so a crash can lose recent facts but can never resurrect
// wrong verdicts. Records are additive facts (plus explicit invalidation
// tombstones), so replaying a log over a newer snapshot after a crash
// mid-compaction is idempotent.
//
// Durability contract: facts buffered by Add*/Set* become durable at the
// next Flush (fsync). InvalidateUDF is synchronous — it is fsynced before
// returning, so once a UDF re-registration completes no stale verdict for
// that name can survive a crash. The catalog trusts the operator to
// register the same UDF bodies across restarts; a changed body must be
// re-registered under the engine, which invalidates here.
//
// The contract holds under this crash model: a crash may lose any bytes a
// file has not fsynced and any directory entry whose directory has not
// been fsynced. crash_test.go crashes a scripted workload after every file
// operation to check it.
package catalog

import (
	"fmt"
	"iter"
	"path/filepath"
	"sort"
	"sync"
)

// OutcomeKey identifies one memoizable predicate application: raw UDF
// verdicts are stored per (table, UDF, argument column).
type OutcomeKey struct {
	Table, UDF, Column string
}

// columnChoice is a memoized Section 4.4 discovery result.
type columnChoice struct {
	udf    string
	chosen string
}

// Recovery describes what Open had to do to reach a consistent state.
type Recovery struct {
	// Truncated reports that a corrupted or incomplete tail was detected
	// and cut off (the usual crash signature).
	Truncated bool
	// Note is a human-readable description of what was recovered past.
	Note string
}

// Stats summarizes the catalog's contents and health.
type Stats struct {
	// OutcomeRows is the total number of persisted raw UDF verdicts.
	OutcomeRows int
	// ColumnMemos is the number of memoized correlated-column choices.
	ColumnMemos int
	// PendingRecords counts buffered deltas not yet flushed to the log.
	PendingRecords int
	// Recovered reports that the last Open truncated a damaged tail.
	Recovered bool
	// RecoveryNote describes the recovery, when Recovered is set.
	RecoveryNote string
}

// Catalog is the in-memory view of one catalog directory plus its open
// append-only log. All methods are safe for concurrent use; reads during
// a Flush or Compact simply wait on the mutex.
type Catalog struct {
	mu  sync.Mutex
	fs  fileSystem
	dir string
	log file

	outcomes map[OutcomeKey]verdicts
	columns  map[string]columnChoice

	pending  []record
	recovery Recovery
	closed   bool
	// goodLen is the length of the log's known-good prefix: every byte
	// below it was written whole. A failed append truncates back to it so
	// later records (tombstones above all) are never written after torn
	// bytes that replay would stop at.
	goodLen int64
	// broken marks a log whose tail could not be repaired after a failed
	// append; further writes are refused rather than silently lost.
	broken bool
	// snapCurrent reports that both files are at formatVersion and the
	// snapshot holds exactly the in-memory state: read clean at Open, or
	// written by Compact, and no fact changed since.
	snapCurrent bool
}

// Open creates dir if needed, replays catalog.snap then catalog.log, and
// returns a catalog positioned to append. Damaged tails are truncated and
// reported via Recovery(); only a version mismatch or an I/O failure is an
// error.
func Open(dir string) (*Catalog, error) { return openFS(osFS{}, dir) }

// openFS is Open over fsys.
func openFS(fsys fileSystem, dir string) (*Catalog, error) {
	created, err := fsys.MkdirAll(dir)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	c := &Catalog{
		fs:       fsys,
		dir:      dir,
		outcomes: make(map[OutcomeKey]verdicts),
		columns:  make(map[string]columnChoice),
	}
	// Snapshot first: a damaged snapshot tail loses facts (safe — they are
	// re-paid), never corrupts what follows, because records are
	// self-contained.
	snapRecs, _, snapVersion, snapRec, err := readRecordFile(fsys, c.snapPath())
	if err != nil {
		return nil, err
	}
	// Log second, in append order; its tail is truncated on damage so the
	// file is immediately appendable again.
	logRecs, logVersion, logRec, err := recoverLog(fsys, c.logPath())
	if err != nil {
		return nil, err
	}
	c.replay(snapRecs, logRecs)
	c.recovery = mergeRecovery(snapRec, logRec)
	f, fresh, err := openAppend(fsys, c.logPath())
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("catalog: %w", err)
	}
	// A new directory entry survives a crash only once its directory is
	// synced; without this, facts a Flush reported durable would live in a
	// log a crash can unlink.
	if fresh {
		created = append(created, c.logPath())
	}
	for _, p := range created {
		if err := fsys.SyncDir(filepath.Dir(p)); err != nil {
			f.Close()
			return nil, fmt.Errorf("catalog: %w", err)
		}
	}
	c.log = f
	c.goodLen = info.Size()
	// A missing snapshot is current when the log holds nothing either.
	c.snapCurrent = !snapRec.Truncated && (snapVersion == formatVersion || snapVersion == 0) &&
		(fresh || logVersion == formatVersion) && c.goodLen == int64(headerLen)
	return c, nil
}

func (c *Catalog) snapPath() string { return filepath.Join(c.dir, "catalog.snap") }
func (c *Catalog) logPath() string  { return filepath.Join(c.dir, "catalog.log") }

// Dir returns the catalog directory.
func (c *Catalog) Dir() string { return c.dir }

// Recovery reports what the last Open had to repair.
func (c *Catalog) Recovery() Recovery {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recovery
}

// replay folds the snapshot's and then the log's records into memory, in
// order. A key's outcome records are combined once at the end, so a long
// log costs one sort per key rather than one merge per record.
func (c *Catalog) replay(files ...[]record) {
	runs := make(map[OutcomeKey][]verdicts)
	for _, recs := range files {
		for _, r := range recs {
			switch r.Kind {
			case kindOutcomes:
				runs[r.key()] = append(runs[r.key()], r.set)
			case kindColumn:
				c.columns[r.Key] = columnChoice{udf: r.UDF, chosen: r.Chosen}
			case kindInvalidate:
				for k := range runs {
					if k.UDF == r.UDF {
						delete(runs, k)
					}
				}
				c.dropUDF(r.UDF)
			}
			// Unknown kinds are ignored: facts a newer minor revision writes,
			// or the sampling evidence ("samples") older builds wrote, which a
			// repeated statement must not plan on. Compact drops them.
		}
	}
	for k, sets := range runs {
		s := sets[0]
		if len(sets) > 1 {
			s = collect(concat(sets))
		}
		if s.len() > 0 {
			c.outcomes[k] = s
		}
	}
}

// dropUDF removes every fact derived from the named UDF's body.
func (c *Catalog) dropUDF(udf string) {
	for k := range c.outcomes {
		if k.UDF == udf {
			delete(c.outcomes, k)
		}
	}
	for k, ch := range c.columns {
		if ch.udf == udf {
			delete(c.columns, k)
		}
	}
}

// Outcomes yields the persisted raw verdicts for key in ascending row
// order (nothing when none are known). It iterates the set held when it
// was called, without a lock.
func (c *Catalog) Outcomes(k OutcomeKey) iter.Seq2[int, bool] {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.outcomes[k].all()
}

// AddOutcomes merges newly paid-for raw verdicts into the catalog and
// buffers the genuinely new ones for the next Flush. Re-adding known
// facts is free (no log growth). Negative rows are ignored: a row id is a
// table position. Any order is accepted; ascending costs no sort.
func (c *Catalog) AddOutcomes(k OutcomeKey, verdicts iter.Seq2[int, bool]) {
	next := collect(verdicts)
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.outcomes[k]
	delta := cur.missing(next)
	if delta.len() == 0 {
		return
	}
	c.outcomes[k] = merge(cur, delta)
	c.pending = append(c.pending, outcomeRecord(k, delta))
	c.snapCurrent = false
}

// ChosenColumn returns the memoized Section 4.4 discovery result for the
// workload key, if one is stored.
func (c *Catalog) ChosenColumn(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch, ok := c.columns[key]
	return ch.chosen, ok
}

// SetChosenColumn memoizes a discovery result. udf names the predicate the
// choice was derived from, so invalidating that UDF also drops the memo.
func (c *Catalog) SetChosenColumn(key, udf, chosen string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.columns[key]; ok && cur.udf == udf && cur.chosen == chosen {
		return
	}
	c.columns[key] = columnChoice{udf: udf, chosen: chosen}
	c.pending = append(c.pending, record{Kind: kindColumn, Key: key, UDF: udf, Chosen: chosen})
	c.snapCurrent = false
}

// InvalidateUDF durably drops every fact derived from the named UDF: the
// in-memory state is purged and a tombstone is appended and fsynced before
// returning, so a re-registered UDF body can never serve stale verdicts —
// not even across a crash immediately after this call.
func (c *Catalog) InvalidateUDF(udf string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropUDF(udf)
	c.snapCurrent = false
	// Drop buffered facts for the UDF too: they were derived from the old
	// body and must not be flushed after the tombstone.
	kept := c.pending[:0]
	for _, r := range c.pending {
		if r.UDF == udf {
			continue
		}
		kept = append(kept, r)
	}
	c.pending = kept
	if err := c.appendLocked([]record{{Kind: kindInvalidate, UDF: udf}}); err != nil {
		return err
	}
	return c.syncLocked()
}

// Flush appends every buffered delta to the log and fsyncs. It is cheap
// when nothing is pending.
func (c *Catalog) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

func (c *Catalog) flushLocked() error {
	if c.closed {
		return fmt.Errorf("catalog: closed")
	}
	if len(c.pending) == 0 {
		return nil
	}
	if err := c.appendLocked(c.pending); err != nil {
		return err
	}
	if err := c.syncLocked(); err != nil {
		return err
	}
	c.pending = c.pending[:0]
	return nil
}

// Compact folds the full state into a fresh snapshot (tmp + fsync +
// rename + directory fsync) and truncates the log. The log is left
// untouched unless the new snapshot is durable. Crashing between the
// rename and the truncate is safe: the old log replays idempotently over
// the new snapshot because replay preserves record order. When the
// snapshot already is the state — nothing pending, a log holding only its
// header, a clean version-2 snapshot, a log that is not broken — Compact
// touches no file.
func (c *Catalog) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("catalog: closed")
	}
	if c.snapCurrent && len(c.pending) == 0 && c.goodLen == int64(headerLen) && !c.broken {
		return nil
	}
	if err := writeSnapshot(c.fs, c.snapPath(), c.snapshotRecords()); err != nil {
		return err
	}
	// Truncate the log in place — the handle stays open (O_APPEND puts the
	// next write at the new EOF). If truncation fails the old log is still
	// valid and appendable: replaying it over the fresh snapshot is
	// idempotent, so nothing is lost or wrong, just un-shrunk.
	if err := c.log.Truncate(0); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	c.goodLen = 0
	if err := writeHeader(c.log); err != nil {
		// A header-less log cannot be appended to safely; refuse further
		// writes (the next Open resets it and recovers from the snapshot).
		c.broken = true
		return err
	}
	c.goodLen = int64(headerLen)
	if err := c.syncLocked(); err != nil {
		return err
	}
	c.pending = c.pending[:0] // already folded into the snapshot
	c.broken = false          // the fresh log repairs any earlier tail damage
	c.snapCurrent = true
	return nil
}

// snapshotRecords renders the full state as a deterministic record list.
func (c *Catalog) snapshotRecords() []record {
	var recs []record
	okeys := make([]OutcomeKey, 0, len(c.outcomes))
	for k := range c.outcomes {
		okeys = append(okeys, k)
	}
	sort.Slice(okeys, func(i, j int) bool { return lessOutcome(okeys[i], okeys[j]) })
	for _, k := range okeys {
		recs = append(recs, outcomeRecord(k, c.outcomes[k]))
	}
	ckeys := make([]string, 0, len(c.columns))
	for k := range c.columns {
		ckeys = append(ckeys, k)
	}
	sort.Strings(ckeys)
	for _, k := range ckeys {
		ch := c.columns[k]
		recs = append(recs, record{Kind: kindColumn, Key: k, UDF: ch.udf, Chosen: ch.chosen})
	}
	return recs
}

func lessOutcome(a, b OutcomeKey) bool {
	if a.Table != b.Table {
		return a.Table < b.Table
	}
	if a.UDF != b.UDF {
		return a.UDF < b.UDF
	}
	return a.Column < b.Column
}

// Close flushes buffered deltas and releases the log handle. The catalog
// is unusable afterwards.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	err := c.flushLocked()
	if cerr := c.log.Close(); err == nil {
		err = cerr
	}
	c.closed = true
	return err
}

// Stats summarizes contents and recovery state.
func (c *Catalog) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		ColumnMemos:    len(c.columns),
		PendingRecords: len(c.pending),
		Recovered:      c.recovery.Truncated,
		RecoveryNote:   c.recovery.Note,
	}
	for _, set := range c.outcomes {
		s.OutcomeRows += set.len()
	}
	return s
}

func mergeRecovery(a, b Recovery) Recovery {
	switch {
	case a.Truncated && b.Truncated:
		return Recovery{Truncated: true, Note: a.Note + "; " + b.Note}
	case a.Truncated:
		return a
	default:
		return b
	}
}
