// Package catalog is the durable statistics and outcome store: a
// crash-safe, versioned on-disk catalog that persists the assets the
// engine pays for at query time — raw UDF verdicts per (table, UDF,
// column), labeled sampling evidence per (table, UDF, grouping column),
// and the correlated column chosen by the Section 4.4 discovery pass per
// workload key — so a process restart warm-starts from them instead of
// re-paying o_e.
//
// On disk a catalog directory holds two files:
//
//	catalog.snap   full-state snapshot (rewritten by Compact)
//	catalog.log    append-only delta log since the snapshot (Flush appends)
//
// Both are sequences of length-prefixed, CRC32-checksummed records behind
// a versioned magic header. Open replays the snapshot and then the log;
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
	"path/filepath"
	"sort"
	"sync"
)

// OutcomeKey identifies one memoizable predicate application: raw UDF
// verdicts are stored per (table, UDF, argument column).
type OutcomeKey struct {
	Table, UDF, Column string
}

// SampleKey identifies accumulated labeled sampling evidence: the rows a
// query labeled or sampled while estimating per-group selectivities,
// stored per (table, UDF, argument column, grouping column, filter set).
// A filtered query's sample is uniform only over the filtered rows of each
// group, so it never seeds a query with another filter set. Filters is the
// engine's canonical filter string ("" when unfiltered).
type SampleKey struct {
	Table, UDF, Column, GroupColumn, Filters string
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
	// SampleRows is the total number of persisted labeled sample outcomes.
	SampleRows int
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

	outcomes map[OutcomeKey]map[int]bool
	samples  map[SampleKey]map[int]bool
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
		outcomes: make(map[OutcomeKey]map[int]bool),
		samples:  make(map[SampleKey]map[int]bool),
		columns:  make(map[string]columnChoice),
	}
	// Snapshot first: a damaged snapshot tail loses facts (safe — they are
	// re-paid), never corrupts what follows, because records are
	// self-contained.
	snapRecs, _, snapRec, err := readRecordFile(fsys, c.snapPath())
	if err != nil {
		return nil, err
	}
	for _, r := range snapRecs {
		c.apply(r)
	}
	// Log second, in append order; its tail is truncated on damage so the
	// file is immediately appendable again.
	logRecs, logRec, err := recoverLog(fsys, c.logPath())
	if err != nil {
		return nil, err
	}
	for _, r := range logRecs {
		c.apply(r)
	}
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

// apply folds one replayed or freshly buffered record into memory.
func (c *Catalog) apply(r record) {
	switch r.Kind {
	case kindOutcomes:
		k := OutcomeKey{Table: r.Table, UDF: r.UDF, Column: r.Column}
		m := c.outcomes[k]
		if m == nil {
			m = make(map[int]bool, len(r.Rows))
			c.outcomes[k] = m
		}
		for i, row := range r.Rows {
			m[row] = r.Bits[i] == '1'
		}
	case kindSamples:
		k := SampleKey{Table: r.Table, UDF: r.UDF, Column: r.Column, GroupColumn: r.Group, Filters: r.Filters}
		m := c.samples[k]
		if m == nil {
			m = make(map[int]bool, len(r.Rows))
			c.samples[k] = m
		}
		for i, row := range r.Rows {
			m[row] = r.Bits[i] == '1'
		}
	case kindColumn:
		c.columns[r.Key] = columnChoice{udf: r.UDF, chosen: r.Chosen}
	case kindInvalidate:
		c.dropUDF(r.UDF)
	}
	// Unknown kinds (written by a newer minor revision) are ignored: they
	// can only be additive facts this revision does not use.
}

// dropUDF removes every fact derived from the named UDF's body.
func (c *Catalog) dropUDF(udf string) {
	for k := range c.outcomes {
		if k.UDF == udf {
			delete(c.outcomes, k)
		}
	}
	for k := range c.samples {
		if k.UDF == udf {
			delete(c.samples, k)
		}
	}
	for k, ch := range c.columns {
		if ch.udf == udf {
			delete(c.columns, k)
		}
	}
}

// Outcomes returns a copy of the persisted raw verdicts for key (nil when
// none are known).
func (c *Catalog) Outcomes(k OutcomeKey) map[int]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return copyRows(c.outcomes[k])
}

// AddOutcomes merges newly paid-for raw verdicts into the catalog and
// buffers the genuinely new ones for the next Flush. Re-adding known
// facts is free (no log growth).
func (c *Catalog) AddOutcomes(k OutcomeKey, verdicts map[int]bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.outcomes[k]
	delta := diffRows(cur, verdicts)
	if len(delta) == 0 {
		return
	}
	if cur == nil {
		cur = make(map[int]bool, len(delta))
		c.outcomes[k] = cur
	}
	for row, v := range delta {
		cur[row] = v
	}
	rows, bits := encodeRows(delta)
	c.pending = append(c.pending, record{
		Kind: kindOutcomes, Table: k.Table, UDF: k.UDF, Column: k.Column,
		Rows: rows, Bits: bits,
	})
}

// Samples returns a copy of the labeled sampling evidence for key (raw,
// unfolded verdicts; nil when none is known).
func (c *Catalog) Samples(k SampleKey) map[int]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return copyRows(c.samples[k])
}

// AddSamples merges labeled sampling evidence (raw verdicts) and buffers
// the new facts for the next Flush.
func (c *Catalog) AddSamples(k SampleKey, verdicts map[int]bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.samples[k]
	delta := diffRows(cur, verdicts)
	if len(delta) == 0 {
		return
	}
	if cur == nil {
		cur = make(map[int]bool, len(delta))
		c.samples[k] = cur
	}
	for row, v := range delta {
		cur[row] = v
	}
	rows, bits := encodeRows(delta)
	c.pending = append(c.pending, record{
		Kind: kindSamples, Table: k.Table, UDF: k.UDF, Column: k.Column, Group: k.GroupColumn,
		Filters: k.Filters, Rows: rows, Bits: bits,
	})
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
}

// InvalidateUDF durably drops every fact derived from the named UDF: the
// in-memory state is purged and a tombstone is appended and fsynced before
// returning, so a re-registered UDF body can never serve stale verdicts —
// not even across a crash immediately after this call.
func (c *Catalog) InvalidateUDF(udf string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropUDF(udf)
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
// the new snapshot because replay preserves record order.
func (c *Catalog) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("catalog: closed")
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
		rows, bits := encodeRows(c.outcomes[k])
		recs = append(recs, record{Kind: kindOutcomes, Table: k.Table, UDF: k.UDF, Column: k.Column, Rows: rows, Bits: bits})
	}
	skeys := make([]SampleKey, 0, len(c.samples))
	for k := range c.samples {
		skeys = append(skeys, k)
	}
	sort.Slice(skeys, func(i, j int) bool { return lessSample(skeys[i], skeys[j]) })
	for _, k := range skeys {
		rows, bits := encodeRows(c.samples[k])
		recs = append(recs, record{Kind: kindSamples, Table: k.Table, UDF: k.UDF, Column: k.Column, Group: k.GroupColumn,
			Filters: k.Filters, Rows: rows, Bits: bits})
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

func lessSample(a, b SampleKey) bool {
	if a.Table != b.Table {
		return a.Table < b.Table
	}
	if a.UDF != b.UDF {
		return a.UDF < b.UDF
	}
	if a.Column != b.Column {
		return a.Column < b.Column
	}
	if a.GroupColumn != b.GroupColumn {
		return a.GroupColumn < b.GroupColumn
	}
	return a.Filters < b.Filters
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
	for _, m := range c.outcomes {
		s.OutcomeRows += len(m)
	}
	for _, m := range c.samples {
		s.SampleRows += len(m)
	}
	return s
}

// copyRows clones a verdict map (nil in, nil out).
func copyRows(m map[int]bool) map[int]bool {
	if m == nil {
		return nil
	}
	out := make(map[int]bool, len(m))
	for row, v := range m {
		out[row] = v
	}
	return out
}

// diffRows returns the entries of next that cur does not already hold.
// A row present in both with a different verdict is included (last write
// wins — this only happens after an invalidation changed the UDF body).
func diffRows(cur, next map[int]bool) map[int]bool {
	delta := make(map[int]bool)
	for row, v := range next {
		if old, ok := cur[row]; !ok || old != v {
			delta[row] = v
		}
	}
	return delta
}

// encodeRows renders a verdict map as a sorted row list plus a '0'/'1'
// bit string (deterministic on-disk form).
func encodeRows(m map[int]bool) ([]int, string) {
	rows := make([]int, 0, len(m))
	for row := range m {
		rows = append(rows, row)
	}
	sort.Ints(rows)
	bits := make([]byte, len(rows))
	for i, row := range rows {
		if m[row] {
			bits[i] = '1'
		} else {
			bits[i] = '0'
		}
	}
	return rows, string(bits)
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
