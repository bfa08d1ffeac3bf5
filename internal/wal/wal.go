// Package wal is the write-ahead log of the durable-commit path: an
// append-only file of length-prefixed, CRC32-checksummed records, fsynced
// on every append, with a checkpoint record marking how far the library's
// on-disk snapshot has caught up.
//
// File layout:
//
//	magic "DLWAL01\n" | record₀ | record₁ | …
//
//	record:  u32 payloadLen | u32 crc32(payload) | payload
//	payload: u64 seq | u8 kind | u16 tokenLen | token | data
//
// All integers are little-endian. Commit records carry an opaque payload
// (the facade's encoded ingest jobs) plus an optional client-supplied
// idempotency token; checkpoint records carry the sequence number the last
// durable snapshot covers and the library generation it was taken at.
//
// Durability protocol:
//
//   - Append writes one record and fsyncs before returning — a commit is
//     acknowledged only after its record is on stable storage.
//   - Open replays the log and stops cleanly at the first torn or corrupt
//     record (a crash mid-append leaves exactly such a tail); the torn
//     suffix is then atomically truncated away so later appends extend a
//     well-formed log.
//   - Rotate atomically rewrites the log as header + one checkpoint
//     record, dropping everything the snapshot now covers. It runs only
//     after the snapshot itself is durable (temp + fsync + rename + dir
//     fsync), so a crash between the two steps merely replays records the
//     snapshot already holds — which the facade's replay deduplicates by
//     sequence number.
//
// Every mutation goes through an fsx.FS, so the crash-matrix tests can
// fail any single write, fsync, or rename and prove no acknowledged record
// is ever lost.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"path/filepath"
	"sync"

	"repro/internal/fsx"
)

// Magic is the 8-byte file prefix of a WAL file.
const Magic = "DLWAL01\n"

// FileName is the log's file name inside its directory.
const FileName = "wal.log"

const (
	// maxPayload bounds a record payload against hostile length prefixes.
	maxPayload = 1 << 28
	// maxToken bounds the idempotency token length.
	maxToken = 4096
	// minPayload is the smallest well-formed payload: seq + kind + tokenLen.
	minPayload = 8 + 1 + 2
)

// Kind discriminates record types.
type Kind uint8

const (
	// KindCommit is a logged commit batch: Token carries the client's
	// idempotency token (may be empty), Data the encoded jobs.
	KindCommit Kind = 1
	// KindCheckpoint marks a durable snapshot: Data is
	// u64 coveredSeq | u64 generation.
	KindCheckpoint Kind = 2
)

// Record is one decoded log record.
type Record struct {
	Seq   uint64
	Kind  Kind
	Token string
	Data  []byte
}

// CheckpointData decodes a checkpoint record's payload.
func (r Record) CheckpointData() (coveredSeq uint64, gen int64, err error) {
	if r.Kind != KindCheckpoint {
		return 0, 0, fmt.Errorf("wal: record %d is not a checkpoint", r.Seq)
	}
	if len(r.Data) != 16 {
		return 0, 0, fmt.Errorf("wal: checkpoint record %d has %d data bytes, want 16", r.Seq, len(r.Data))
	}
	return binary.LittleEndian.Uint64(r.Data[0:8]), int64(binary.LittleEndian.Uint64(r.Data[8:16])), nil
}

// State is what Open recovered from the log.
type State struct {
	// Pending holds the commit records not covered by the last checkpoint,
	// in append (sequence) order — what replay must re-apply.
	Pending []Record
	// CheckpointSeq is the sequence number the last checkpoint covers
	// (0 when the log holds none).
	CheckpointSeq uint64
	// CheckpointGen is the library generation recorded by that checkpoint.
	CheckpointGen int64
	// TornTail reports that the log ended in a torn or corrupt record
	// (crash mid-append); the tail was truncated away.
	TornTail bool
}

// Log is an open write-ahead log. Append and Rotate are safe for
// concurrent use (serialized internally); callers normally serialize them
// anyway under their commit lock.
type Log struct {
	fs   fsx.FS
	dir  string
	path string

	mu        sync.Mutex
	f         fsx.File
	nextSeq   uint64
	appendErr error
}

// Open opens (creating if necessary) the log in dir and replays it. The
// returned State carries the records a crash left unapplied. A torn tail —
// the signature of a crash mid-append — is truncated away atomically; any
// earlier corruption is truncated with it, never silently skipped over.
func Open(dir string, fs fsx.FS) (*Log, State, error) {
	if fs == nil {
		fs = fsx.OS
	}
	var st State
	if err := fs.MkdirAll(dir); err != nil {
		return nil, st, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	path := filepath.Join(dir, FileName)
	data, err := fs.ReadFile(path)
	switch {
	case errors.Is(err, iofs.ErrNotExist):
		data = nil
	case err != nil:
		return nil, st, fmt.Errorf("wal: read %s: %w", path, err)
	}

	fresh := len(data) < len(Magic)
	if fresh && len(data) > 0 {
		// A crash during initial creation left a partial header; rewrite.
		st.TornTail = true
	}
	if !fresh && string(data[:len(Magic)]) != Magic {
		return nil, st, fmt.Errorf("wal: %s: bad magic %q", path, data[:len(Magic)])
	}

	nextSeq := uint64(1)
	goodOff := len(Magic)
	if fresh {
		goodOff = 0
	}
	if !fresh {
		recs, off, torn := parseRecords(data[len(Magic):])
		goodOff = len(Magic) + off
		st.TornTail = st.TornTail || torn
		for _, r := range recs {
			if r.Seq >= nextSeq {
				nextSeq = r.Seq + 1
			}
			switch r.Kind {
			case KindCommit:
				st.Pending = append(st.Pending, r)
			case KindCheckpoint:
				covered, gen, err := r.CheckpointData()
				if err != nil {
					return nil, st, err
				}
				st.CheckpointSeq, st.CheckpointGen = covered, gen
				kept := st.Pending[:0]
				for _, p := range st.Pending {
					if p.Seq > covered {
						kept = append(kept, p)
					}
				}
				st.Pending = kept
			}
		}
	}

	// Repair: rewrite the well-formed prefix (or a fresh header) so the
	// append handle continues a clean log.
	if fresh || goodOff < len(data) {
		prefix := data[:goodOff]
		if err := fsx.WriteAtomic(fs, path, func(w io.Writer) error {
			if fresh {
				_, err := w.Write([]byte(Magic))
				return err
			}
			_, err := w.Write(prefix)
			return err
		}); err != nil {
			return nil, st, fmt.Errorf("wal: repair tail: %w", err)
		}
	}

	f, err := fs.OpenAppend(path)
	if err != nil {
		return nil, st, fmt.Errorf("wal: open append: %w", err)
	}
	return &Log{fs: fs, dir: dir, path: path, f: f, nextSeq: nextSeq}, st, nil
}

// parseRecords decodes records from b (the file minus its header). It
// returns the records decoded, the byte offset just past the last good
// record, and whether a torn/corrupt tail stopped the scan.
func parseRecords(b []byte) (recs []Record, goodOff int, torn bool) {
	off := 0
	for {
		rest := b[off:]
		if len(rest) == 0 {
			return recs, off, false
		}
		if len(rest) < 8 {
			return recs, off, true
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if n < minPayload || n > maxPayload || uint64(n) > uint64(len(rest)-8) {
			return recs, off, true
		}
		payload := rest[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, off, true
		}
		seq := binary.LittleEndian.Uint64(payload[0:8])
		kind := Kind(payload[8])
		if kind != KindCommit && kind != KindCheckpoint {
			return recs, off, true
		}
		tokenLen := int(binary.LittleEndian.Uint16(payload[9:11]))
		if tokenLen > maxToken || 11+tokenLen > len(payload) {
			return recs, off, true
		}
		rec := Record{
			Seq:   seq,
			Kind:  kind,
			Token: string(payload[11 : 11+tokenLen]),
			Data:  append([]byte(nil), payload[11+tokenLen:]...),
		}
		recs = append(recs, rec)
		off += 8 + int(n)
	}
}

// encodeRecord renders one record in wire form.
func encodeRecord(seq uint64, kind Kind, token string, data []byte) []byte {
	payloadLen := minPayload + len(token) + len(data)
	buf := make([]byte, 8+payloadLen)
	payload := buf[8:]
	binary.LittleEndian.PutUint64(payload[0:8], seq)
	payload[8] = byte(kind)
	binary.LittleEndian.PutUint16(payload[9:11], uint16(len(token)))
	copy(payload[11:], token)
	copy(payload[11+len(token):], data)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(payloadLen))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return buf
}

// Append durably adds one record: it is written and fsynced before Append
// returns, so a caller that then acknowledges the commit can never lose it
// to a crash. A failed append poisons the log — the tail may be torn, so
// further appends are refused until Rotate rewrites the file (or the
// process restarts and Open repairs it).
func (l *Log) Append(kind Kind, token string, data []byte) (uint64, error) {
	if len(token) > maxToken {
		return 0, fmt.Errorf("wal: token longer than %d bytes", maxToken)
	}
	if len(data) > maxPayload-minPayload-len(token) {
		return 0, fmt.Errorf("wal: record data too large (%d bytes)", len(data))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.appendErr != nil {
		return 0, fmt.Errorf("wal: log poisoned by earlier failure: %w", l.appendErr)
	}
	seq := l.nextSeq
	rec := encodeRecord(seq, kind, token, data)
	if _, err := l.f.Write(rec); err != nil {
		l.appendErr = err
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.appendErr = err
		return 0, fmt.Errorf("wal: fsync: %w", err)
	}
	l.nextSeq = seq + 1
	return seq, nil
}

// Rotate atomically replaces the log with header + one checkpoint record
// declaring every record with seq <= coveredSeq durable in the snapshot
// taken at generation gen. The caller must have made that snapshot durable
// FIRST. Rotation also heals a poisoned log: the rewrite discards any torn
// tail along with the covered records.
func (l *Log) Rotate(coveredSeq uint64, gen int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var data [16]byte
	binary.LittleEndian.PutUint64(data[0:8], coveredSeq)
	binary.LittleEndian.PutUint64(data[8:16], uint64(gen))
	seq := l.nextSeq
	rec := encodeRecord(seq, KindCheckpoint, "", data[:])
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	err := fsx.WriteAtomic(l.fs, l.path, func(w io.Writer) error {
		if _, err := w.Write([]byte(Magic)); err != nil {
			return err
		}
		_, err := w.Write(rec)
		return err
	})
	if err != nil {
		l.appendErr = fmt.Errorf("rotate: %w", err)
		return fmt.Errorf("wal: rotate: %w", err)
	}
	f, err := l.fs.OpenAppend(l.path)
	if err != nil {
		l.appendErr = fmt.Errorf("rotate reopen: %w", err)
		return fmt.Errorf("wal: reopen after rotate: %w", err)
	}
	l.f = f
	l.nextSeq = seq + 1
	l.appendErr = nil
	return nil
}

// Close releases the append handle. Appended records are already durable;
// Close adds nothing and loses nothing.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
