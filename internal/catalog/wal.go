package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// On-disk format, version 2. Both catalog files are:
//
//	8-byte header: "PREDCAT" + one version byte
//	then records:  uint32 LE payload length | uint32 LE CRC32-C | payload
//
// The payload is one JSON-encoded record. An outcome record carries its
// rows as uvarint gaps (the first counted from -1, so no gap is zero) and
// its verdicts as packed bits, one per row, least significant first: about
// one byte a verdict for a dense key, three at most for any table of up to
// 2^21 rows, before the envelope's base64. The CRC covers the payload
// only; a record whose length field runs past EOF, whose checksum
// mismatches, or whose payload does not decode marks the end of the
// trustworthy prefix — everything before it is valid (each record was
// fsynced whole before later ones were written), everything from it on is
// a crash artifact and is discarded.
//
// Version 1 wrote outcome rows as decimal ids ("r") and verdicts as one
// '0'/'1' byte each ("b"). Such a file is still read, and Compact rewrites
// it as version 2; a version-1 log may also hold version-2 records
// appended after it was opened, so an outcome record is decoded by its
// fields, not by its file's header.

const (
	fileMagic     = "PREDCAT"
	formatVersion = 2
	// oldestVersion is the oldest format Open still reads.
	oldestVersion = 1
	headerLen     = len(fileMagic) + 1
	// maxRecordLen bounds a single record; anything larger is treated as
	// tail corruption rather than an allocation request.
	maxRecordLen = 1 << 28
)

// Record kinds. Additive facts plus the invalidation tombstone.
const (
	kindOutcomes   = "outcomes"
	kindColumn     = "column"
	kindInvalidate = "invalidate-udf"
)

// record is the wire form of one catalog fact. No tag reuses a letter an
// older build wrote: its samples records carry "g" and "f".
type record struct {
	Kind   string `json:"k"`
	Table  string `json:"t,omitempty"`
	UDF    string `json:"u,omitempty"`
	Column string `json:"c,omitempty"`
	Key    string `json:"w,omitempty"` // workload key (column memos)
	Chosen string `json:"n,omitempty"` // chosen column (column memos)
	Gaps   []byte `json:"d,omitempty"` // outcome rows, see verdicts.gaps
	Bits   []byte `json:"v,omitempty"` // one verdict bit per row
	// V1Rows and V1Bits are version 1's outcome encoding, only decoded.
	V1Rows []int  `json:"r,omitempty"`
	V1Bits string `json:"b,omitempty"` // one '0'/'1' per entry of V1Rows

	set verdicts // an outcome record's verdicts, decoded
}

// outcomeRecord is the record of key k's verdicts s.
func outcomeRecord(k OutcomeKey, s verdicts) record {
	return record{Kind: kindOutcomes, Table: k.Table, UDF: k.UDF, Column: k.Column, Gaps: s.gaps(), Bits: s.bits}
}

func (r record) key() OutcomeKey { return OutcomeKey{Table: r.Table, UDF: r.UDF, Column: r.Column} }

// decode fills an outcome record's set and reports whether the record is
// whole. It rejects a negative row, a zero gap, bits shorter or longer than
// the rows, and a record with both encodings: a structurally damaged
// payload that happens to checksum (a buggy writer) is damage like a bad
// checksum, never partly applied.
func (r *record) decode() bool {
	if r.Kind != kindOutcomes {
		// Unknown kinds pass through; replay ignores them.
		return true
	}
	if r.V1Rows == nil && r.V1Bits == "" {
		var ok bool
		r.set, ok = decodeVerdicts(r.Gaps, r.Bits)
		return ok
	}
	if r.Gaps != nil || r.Bits != nil || len(r.V1Rows) != len(r.V1Bits) {
		return false
	}
	for _, row := range r.V1Rows {
		if row < 0 {
			return false
		}
	}
	r.set = collect(func(yield func(int, bool) bool) {
		for i, row := range r.V1Rows {
			if !yield(row, r.V1Bits[i] == '1') {
				return
			}
		}
	})
	return true
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendLocked serializes records onto the open log in one write, keeping
// goodLen in step. On a failed or short write the tail is truncated back
// to the known-good prefix, so a transient error (ENOSPC, EIO) can never
// leave torn bytes that a later successful append — or an invalidation
// tombstone — would land after (replay stops at the first damaged record,
// so anything after torn bytes is silently lost). Callers hold c.mu.
func (c *Catalog) appendLocked(recs []record) error {
	if c.closed {
		return fmt.Errorf("catalog: closed")
	}
	if c.broken {
		return fmt.Errorf("catalog: log tail damaged by an earlier write failure; reopen the catalog to recover")
	}
	var buf bytes.Buffer
	for _, r := range recs {
		if err := writeRecord(&buf, r); err != nil {
			return err
		}
	}
	if _, err := c.log.Write(buf.Bytes()); err != nil {
		if terr := c.log.Truncate(c.goodLen); terr != nil {
			c.broken = true
		}
		return fmt.Errorf("catalog: %w", err)
	}
	c.goodLen += int64(buf.Len())
	return nil
}

// syncLocked fsyncs the log. Callers hold c.mu.
func (c *Catalog) syncLocked() error {
	if err := c.log.Sync(); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	return nil
}

func writeRecord(w io.Writer, r record) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	return nil
}

// parseRecords walks the byte stream after the header and returns the
// decoded records plus the length of the valid prefix (header included)
// and a note describing why parsing stopped early ("" when the whole file
// parsed).
func parseRecords(data []byte) (recs []record, goodLen int, note string) {
	off := headerLen
	for off < len(data) {
		if len(data)-off < 8 {
			return recs, off, fmt.Sprintf("truncated record header at offset %d", off)
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxRecordLen || len(data)-off-8 < n {
			return recs, off, fmt.Sprintf("truncated record payload at offset %d", off)
		}
		payload := data[off+8 : off+8+n]
		if crc32.Checksum(payload, crcTable) != sum {
			return recs, off, fmt.Sprintf("checksum mismatch at offset %d", off)
		}
		var r record
		if err := json.Unmarshal(payload, &r); err != nil || !r.decode() {
			return recs, off, fmt.Sprintf("undecodable record at offset %d", off)
		}
		recs = append(recs, r)
		off += 8 + n
	}
	return recs, off, ""
}

// readRecordFile reads and validates one catalog file. A missing file is
// an empty catalog. A damaged tail is reported, and goodLen is the length
// of the valid prefix (0 when the header is unusable); the file itself is
// left untouched. version is the header's format version (0 when the file
// is missing, empty or unrecognized).
func readRecordFile(fsys fileSystem, path string) (recs []record, goodLen, version int, rec Recovery, err error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, 0, Recovery{}, nil
	}
	if err != nil {
		return nil, 0, 0, Recovery{}, fmt.Errorf("catalog: %w", err)
	}
	if len(data) == 0 {
		return nil, 0, 0, Recovery{}, nil
	}
	if len(data) < headerLen || string(data[:len(fileMagic)]) != fileMagic {
		return nil, 0, 0, Recovery{
			Truncated: true,
			Note:      fmt.Sprintf("%s: unrecognized header, file ignored", filepath.Base(path)),
		}, nil
	}
	if v := data[len(fileMagic)]; v < oldestVersion || v > formatVersion {
		return nil, 0, 0, Recovery{}, fmt.Errorf("catalog: %s is format version %d, this build reads versions %d to %d", filepath.Base(path), v, oldestVersion, formatVersion)
	}
	version = int(data[len(fileMagic)])
	recs, goodLen, note := parseRecords(data)
	if note != "" {
		return recs, goodLen, version, Recovery{Truncated: true, Note: filepath.Base(path) + ": " + note}, nil
	}
	return recs, goodLen, version, Recovery{}, nil
}

// recoverLog is readRecordFile for the append-only log: a damaged tail is
// cut back to the valid prefix, and a log with an unrecognized header is
// emptied (its content cannot be trusted), so appends resume on a clean
// file. The cut is not synced: until the next sync a crash may restore
// the damaged tail, and the next Open cuts it again.
func recoverLog(fsys fileSystem, path string) ([]record, int, Recovery, error) {
	recs, goodLen, version, rec, err := readRecordFile(fsys, path)
	if err != nil || !rec.Truncated {
		return recs, version, rec, err
	}
	if err := fsys.Truncate(path, int64(goodLen)); err != nil {
		return nil, 0, rec, fmt.Errorf("catalog: %w", err)
	}
	return recs, version, rec, nil
}

// openAppend opens the log for appending, creating it if needed. An empty
// log gets a fsynced header; fresh reports that the log was empty, so its
// directory entry may be new.
func openAppend(fsys fileSystem, path string) (f file, fresh bool, err error) {
	f, err = fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return nil, false, fmt.Errorf("catalog: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, false, fmt.Errorf("catalog: %w", err)
	}
	if info.Size() > 0 {
		return f, false, nil
	}
	if err := writeHeader(f); err != nil {
		f.Close()
		return nil, false, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, false, fmt.Errorf("catalog: %w", err)
	}
	return f, true, nil
}

func writeHeader(w io.Writer) error {
	hdr := append([]byte(fileMagic), formatVersion)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	return nil
}

// writeSnapshot atomically replaces the snapshot: write tmp, fsync,
// rename, fsync directory. It returns nil only once the new snapshot is
// durable, because Compact then empties the log.
func writeSnapshot(fsys fileSystem, path string, recs []record) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	err = writeHeader(f)
	for _, r := range recs {
		if err != nil {
			break
		}
		err = writeRecord(f, r)
	}
	if err == nil {
		if serr := f.Sync(); serr != nil {
			err = fmt.Errorf("catalog: %w", serr)
		}
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("catalog: %w", cerr)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("catalog: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	return nil
}
