package repro

// Durable commits: a WAL makes DigitalLibrary.CommitToken crash-safe. Every
// commit batch is encoded, appended to a write-ahead log, and fsynced
// BEFORE any indexing work runs; the caller's acknowledgment therefore
// implies the jobs are on stable storage. If the process dies at any later
// point, reopening the WAL replays the un-checkpointed records through the
// same deterministic Commit path, rebuilding a library byte-identical to
// the one a never-crashed run would hold (segmented commits merge in job
// order at any worker count — the PR 1/5 invariant the recovery path leans
// on).
//
// Checkpoints bound replay work: CheckpointWAL saves the whole library to
// snapshot-<seq>.segfile inside the WAL directory (atomically: temp +
// fsync + rename + dir fsync) and then rotates the log down to a single
// checkpoint record. Recovery loads the snapshot the checkpoint names and
// replays only the records after it. A crash between the two steps leaves
// an orphan snapshot the next recovery ignores (the log's checkpoint
// record, not the directory listing, is authoritative) and the next
// checkpoint replaces.
//
// Idempotency: a commit may carry a client token. Tokens of records still
// in the log (and of commits applied this process lifetime) are remembered
// and deduplicated — a retried commit whose first attempt was logged acks
// without applying twice. The dedup window shrinks to "since the last
// checkpoint" across restarts.

import (
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsx"
	"repro/internal/serve"
	"repro/internal/wal"
)

// snapshotPrefix/Suffix name checkpoint snapshots inside the WAL dir.
const (
	snapshotPrefix = "snapshot-"
	snapshotSuffix = ".segfile"
)

// WAL is the durability sidecar of a DigitalLibrary: an open write-ahead
// log plus the replay/checkpoint protocol over it. Create one with OpenWAL,
// recover with LoadBase + Replay, then AttachWAL it to the library so
// commits flow through it. All methods are safe for concurrent use; the
// commit path is additionally serialized by the library's commit lock.
type WAL struct {
	fs  fsx.FS
	dir string
	log *wal.Log

	mu         sync.Mutex
	state      wal.State
	appliedSeq uint64
	tokens     map[string]uint64

	// Metrics (put on a server's registry by RegisterMetrics):
	records        serve.Counter // records appended (wal_records_total)
	recovered      serve.Counter // records replayed at recovery (wal_recovered_total)
	duplicates     serve.Counter // commits deduplicated by token
	lastCkptGen    atomic.Int64  // generation of the last checkpoint (gauge)
	commitDurable  atomic.Int64  // cumulative nanoseconds from commit arrival to fsync
	commitDurableN serve.Counter // commits measured
}

// OpenWAL opens (creating if needed) the write-ahead log in dir and reads
// back the state a previous process left: the last checkpoint and the
// commit records logged after it. Call LoadBase and Replay to rebuild the
// library, then AttachWAL.
func OpenWAL(dir string) (*WAL, error) { return OpenWALFS(dir, nil) }

// OpenWALFS is OpenWAL over an explicit filesystem seam — the hook the
// fault-injection tests use. fs == nil selects the real filesystem.
func OpenWALFS(dir string, fs fsx.FS) (*WAL, error) {
	if fs == nil {
		fs = fsx.OS
	}
	log, state, err := wal.Open(dir, fs)
	if err != nil {
		return nil, err
	}
	w := &WAL{fs: fs, dir: dir, log: log, state: state, tokens: map[string]uint64{}}
	// Records already logged dedupe retries that straddle a crash.
	for _, r := range state.Pending {
		if r.Token != "" {
			w.tokens[r.Token] = r.Seq
		}
	}
	w.appliedSeq = state.CheckpointSeq
	w.lastCkptGen.Store(state.CheckpointGen)
	return w, nil
}

// Pending returns how many logged commits await replay.
func (w *WAL) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.state.Pending)
}

// TornTail reports whether the log ended in a torn record (the signature
// of a crash mid-append); the tail was already truncated away.
func (w *WAL) TornTail() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state.TornTail
}

// Close releases the log's append handle. Logged records stay durable.
func (w *WAL) Close() error { return w.log.Close() }

// snapshotPath names the checkpoint snapshot covering records <= seq.
func (w *WAL) snapshotPath(seq uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("%s%016d%s", snapshotPrefix, seq, snapshotSuffix))
}

// LoadBase rebuilds the recovery base: the snapshot named by the log's
// last checkpoint when one exists, else whatever fallback produces (the
// operator's -meta index, or an empty library). The bool reports whether a
// snapshot was used. A checkpoint whose snapshot is missing is a hard
// error — the protocol writes the snapshot durably before the checkpoint
// record, so absence means the directory was tampered with.
func (w *WAL) LoadBase(fallback func() (*Library, error)) (*Library, bool, error) {
	w.mu.Lock()
	ckpt := w.state.CheckpointSeq
	w.mu.Unlock()
	if ckpt == 0 {
		lib, err := fallback()
		return lib, false, err
	}
	path := w.snapshotPath(ckpt)
	lib, err := LoadLibraryFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("repro: wal checkpoint names %s: %w", path, err)
	}
	return lib, true, nil
}

// Replay applies every logged-but-unapplied commit record to lib, in log
// order, through the same deterministic Commit path live traffic uses —
// the recovered library is byte-identical to one that never crashed. It
// returns the number of records replayed. Job-level failures (a source
// file that is still missing, say) are deterministic and do not stop
// replay; they simply land the same no-op they landed originally.
func (w *WAL) Replay(ctx context.Context, lib *Library) (int, error) {
	w.mu.Lock()
	pending := w.state.Pending
	w.mu.Unlock()
	n := 0
	for _, rec := range pending {
		jobs, err := decodeJobs(rec.Data)
		if err != nil {
			return n, fmt.Errorf("repro: wal record %d: %w", rec.Seq, err)
		}
		// Forced ContinueOnError mirrors the live WAL commit path; job
		// errors were already reported to the original caller.
		if _, err := lib.Commit(ctx, jobs, walBatchOptions()); err != nil && ctx.Err() != nil {
			return n, err
		}
		n++
		w.recovered.Add(1)
		w.mu.Lock()
		w.appliedSeq = rec.Seq
		w.mu.Unlock()
	}
	w.mu.Lock()
	w.state.Pending = nil
	w.mu.Unlock()
	return n, nil
}

// walBatchOptions is the forced batch configuration of the WAL path: every
// job is attempted (ContinueOnError) so a crash-replay — which cannot know
// where the original run stopped dispatching — lands the identical segment.
func walBatchOptions() BatchOptions {
	return BatchOptions{ContinueOnError: true}
}

// seenToken reports whether token already names a logged commit.
func (w *WAL) seenToken(token string) bool {
	if token == "" {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.tokens[token]
	return ok
}

// logCommit durably appends one commit batch and returns its sequence
// number. On return the record is fsynced — the caller may acknowledge.
func (w *WAL) logCommit(token string, jobs []IngestJob) (uint64, error) {
	data, err := encodeJobs(jobs)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	seq, err := w.log.Append(wal.KindCommit, token, data)
	if err != nil {
		return 0, err
	}
	w.commitDurable.Add(int64(time.Since(start)))
	w.commitDurableN.Add(1)
	w.records.Add(1)
	w.mu.Lock()
	if token != "" {
		w.tokens[token] = seq
	}
	w.mu.Unlock()
	return seq, nil
}

// markApplied records that the commit at seq has been applied to the
// attached library.
func (w *WAL) markApplied(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq > w.appliedSeq {
		w.appliedSeq = seq
	}
}

// checkpoint makes the library durable and prunes the log: save a snapshot
// covering every applied record, then rotate the log down to one
// checkpoint record naming it. Old snapshots are garbage-collected after
// the rotation lands. The caller must hold the library's commit lock so no
// commit can slip between the snapshot and the rotation.
func (w *WAL) checkpoint(lib *Library) error {
	w.mu.Lock()
	covered := w.appliedSeq
	w.mu.Unlock()
	gen := lib.view.Generation()
	path := w.snapshotPath(covered)
	if err := fsx.WriteAtomic(w.fs, path, lib.SaveIndex); err != nil {
		return fmt.Errorf("repro: wal snapshot: %w", err)
	}
	if err := w.log.Rotate(covered, gen); err != nil {
		return err
	}
	w.lastCkptGen.Store(gen)
	w.mu.Lock()
	w.state.CheckpointSeq, w.state.CheckpointGen = covered, gen
	w.mu.Unlock()
	// Best-effort GC of superseded (or orphaned) snapshots.
	if names, err := w.fs.ReadDir(w.dir); err == nil {
		for _, name := range names {
			if strings.HasPrefix(name, snapshotPrefix) && strings.HasSuffix(name, snapshotSuffix) &&
				name != filepath.Base(path) {
				w.fs.Remove(filepath.Join(w.dir, name))
			}
		}
	}
	return nil
}

// RegisterMetrics puts the WAL's counters and gauges on a serving layer's
// registry:
//
//	wal_records              commits durably logged (counter)
//	wal_recovered            records replayed at recovery (counter)
//	wal_duplicate_commits    commits deduplicated by token (counter)
//	wal_last_checkpoint_gen  library generation of the last checkpoint (gauge)
//	wal_commit_durable_seconds / wal_commit_durable_ops
//	                         cumulative commit→fsync latency and count
func (w *WAL) RegisterMetrics(reg *serve.Registry) {
	reg.CounterFunc("wal_records", w.records.Value)
	reg.CounterFunc("wal_recovered", w.recovered.Value)
	reg.CounterFunc("wal_duplicate_commits", w.duplicates.Value)
	reg.GaugeFunc("wal_last_checkpoint_gen", func() float64 { return float64(w.lastCkptGen.Load()) })
	reg.GaugeFunc("wal_commit_durable_seconds", func() float64 {
		return time.Duration(w.commitDurable.Load()).Seconds()
	})
	reg.CounterFunc("wal_commit_durable_ops", w.commitDurableN.Value)
}

// ---------------------------------------------------------------- facade

// AttachWAL routes the library's future commits through the write-ahead
// log: each batch is logged and fsynced before indexing starts, so an
// acknowledged commit survives any crash. Attach after recovery (LoadBase
// + Replay) and before serving traffic.
func (dl *DigitalLibrary) AttachWAL(w *WAL) {
	dl.commitMu.Lock()
	defer dl.commitMu.Unlock()
	dl.wal = w
}

// CheckpointWAL saves a durable snapshot of the backing library into the
// WAL directory and prunes the log down to a checkpoint record — after it
// returns, a restart replays nothing. No-op without an attached WAL.
func (dl *DigitalLibrary) CheckpointWAL() error {
	dl.commitMu.Lock()
	defer dl.commitMu.Unlock()
	if dl.wal == nil || dl.lib == nil {
		return nil
	}
	return dl.wal.checkpoint(dl.lib)
}

// CommitToken ingests new videos into a brand-new segment of the backing
// library and atomically installs an engine snapshot over the extended
// segment set — the incremental scale-out path: the site's text index and
// every existing video segment are reused as-is (nothing is re-indexed or
// re-frozen), queries in flight finish on the snapshot they started with,
// result sets and cursor walks pinned to the old snapshot stay
// byte-identical, and the serving layer's cache generation moves so no
// stale answer can be served. Commits are serialized; Search never blocks
// on one.
//
// A non-empty token names the batch, and a batch whose token is already
// logged acknowledges immediately (nil results) instead of applying twice —
// the contract that makes client retries after ambiguous failures safe. An
// empty token never deduplicates.
//
// With a WAL attached the batch is durably logged before indexing and the
// apply runs to completion even if ctx is cancelled mid-way — a logged
// record WILL be replayed after a crash, so the live path must not be able
// to stop half-way and diverge from recovery. Job-level options are forced
// to the WAL profile (every job attempted) for the same reason; progress
// callbacks are honored.
func (dl *DigitalLibrary) CommitToken(ctx context.Context, token string, jobs []IngestJob, opts BatchOptions) ([]BatchResult, error) {
	dl.commitMu.Lock()
	defer dl.commitMu.Unlock()
	if dl.lib == nil {
		return nil, fmt.Errorf("repro: commit: no video library attached (use Swap to install one)")
	}
	if dl.wal != nil && dl.wal.seenToken(token) {
		dl.wal.duplicates.Add(1)
		return nil, nil
	}
	applyCtx := ctx
	applyOpts := opts
	var seq uint64
	if dl.wal != nil {
		var err error
		if seq, err = dl.wal.logCommit(token, jobs); err != nil {
			return nil, fmt.Errorf("repro: commit not logged: %w", err)
		}
		applyCtx = context.WithoutCancel(ctx)
		forced := walBatchOptions()
		forced.OnProgress = opts.OnProgress
		applyOpts = forced
	}
	genBefore := dl.lib.view.Generation()
	results, err := dl.lib.Commit(applyCtx, jobs, applyOpts)
	if dl.wal != nil {
		dl.wal.markApplied(seq)
	}
	// Install only when a segment actually landed: a commit whose jobs all
	// failed must not mint a new snapshot (which would purge every server's
	// result cache for an unchanged corpus).
	if dl.lib.view.Generation() != genBefore {
		dl.install(dl.engine.Load().WithVideo(dl.lib.View()))
	}
	return results, err
}

// ------------------------------------------------------------- job codec

// Commit batches are logged in a small tagged binary form:
//
//	u32 jobCount, then per job:
//	u8 tag (1 = path job, 2 = frames job)
//	str name                      (u32 len | bytes)
//	path job:   str path
//	frames job: u32 fps | u32 w | u32 h | u32 frameCount | frames' Pix bytes
//
// Path jobs — the normal live-ingest shape — log only the reference; the
// frames are re-read from the source file at replay. In-memory frame jobs
// embed the raster so replay needs no external state.
const (
	jobTagPath   = 1
	jobTagFrames = 2
)

func encodeJobs(jobs []IngestJob) ([]byte, error) {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(jobs)))
	for i, job := range jobs {
		switch {
		case job.Path != "":
			buf = append(buf, jobTagPath)
			buf = appendString(buf, job.Name)
			buf = appendString(buf, job.Path)
		case len(job.Frames) > 0:
			w, h := job.Frames[0].W, job.Frames[0].H
			buf = append(buf, jobTagFrames)
			buf = appendString(buf, job.Name)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(job.FPS))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(h))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(job.Frames)))
			for _, im := range job.Frames {
				if im.W != w || im.H != h || len(im.Pix) != 3*w*h {
					return nil, fmt.Errorf("repro: job %d (%q): inconsistent frame dimensions", i, job.Name)
				}
				buf = append(buf, im.Pix...)
			}
		default:
			return nil, fmt.Errorf("repro: job %d (%q): neither frames nor path", i, job.Name)
		}
	}
	return buf, nil
}

func decodeJobs(data []byte) ([]IngestJob, error) {
	count, data, err := readUint32(data)
	if err != nil {
		return nil, err
	}
	jobs := make([]IngestJob, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(data) < 1 {
			return nil, fmt.Errorf("job %d: missing tag", i)
		}
		tag := data[0]
		data = data[1:]
		var name string
		if name, data, err = readString(data); err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		switch tag {
		case jobTagPath:
			var path string
			if path, data, err = readString(data); err != nil {
				return nil, fmt.Errorf("job %d: %w", i, err)
			}
			jobs = append(jobs, IngestJob{Name: name, Path: path})
		case jobTagFrames:
			var fps, w, h, n uint32
			if fps, data, err = readUint32(data); err != nil {
				return nil, fmt.Errorf("job %d: %w", i, err)
			}
			if w, data, err = readUint32(data); err != nil {
				return nil, fmt.Errorf("job %d: %w", i, err)
			}
			if h, data, err = readUint32(data); err != nil {
				return nil, fmt.Errorf("job %d: %w", i, err)
			}
			if n, data, err = readUint32(data); err != nil {
				return nil, fmt.Errorf("job %d: %w", i, err)
			}
			sz := 3 * int(w) * int(h)
			if w == 0 || h == 0 || uint64(sz)*uint64(n) > uint64(len(data)) {
				return nil, fmt.Errorf("job %d: frame payload out of bounds", i)
			}
			frames := make([]*Image, n)
			for f := range frames {
				frames[f] = &Image{W: int(w), H: int(h), Pix: append([]uint8(nil), data[:sz]...)}
				data = data[sz:]
			}
			jobs = append(jobs, IngestJob{Name: name, Frames: frames, FPS: int(fps)})
		default:
			return nil, fmt.Errorf("job %d: unknown tag %d", i, tag)
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after jobs", len(data))
	}
	return jobs, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func readUint32(data []byte) (uint32, []byte, error) {
	if len(data) < 4 {
		return 0, nil, fmt.Errorf("truncated record")
	}
	return binary.LittleEndian.Uint32(data), data[4:], nil
}

func readString(data []byte) (string, []byte, error) {
	n, data, err := readUint32(data)
	if err != nil {
		return "", nil, err
	}
	if uint64(n) > uint64(len(data)) {
		return "", nil, fmt.Errorf("truncated string")
	}
	return string(data[:n]), data[n:], nil
}
