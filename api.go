// Package repro is the public API of this reproduction of "Content-Based
// Video Indexing for the Support of Digital Library Search" (Petković et
// al., ICDE 2002): a digital library search engine combining the COBRA
// video data model with feature-grammar-driven indexing (Acoi/FDE),
// scalable full-text retrieval with top-N optimization, and conceptual
// webspace search.
//
// The package is a facade over the internal subsystems:
//
//   - Library indexes videos through the tennis Feature Detector Engine
//     and answers content-based scene queries ("show net-play scenes").
//   - DigitalLibrary combines a Library with a webspace site and full-text
//     index, answering the combined concept+content queries of the demo.
//   - Broadcast generation (synthetic tennis video with ground truth) and
//     the SVF video container are re-exported for building corpora.
//
// The Example functions (example_test.go) are runnable tours whose output
// `go test` checks; DESIGN.md is the system map.
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dlse"
	"repro/internal/fde"
	"repro/internal/frame"
	"repro/internal/grammar"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/vidfmt"
	"repro/internal/webspace"
)

// Re-exported core types. Aliases keep the internal packages as the single
// source of truth while making the types usable by importers.
type (
	// Query is the unified request: query-language text, structured
	// request, keyword baseline, vector or hybrid ranking, or scene lookup —
	// exactly one form set.
	Query = dlse.Query
	// ResultSet is a Search answer: one page of items plus cursor,
	// total, snapshot, and optional explain payload.
	ResultSet = dlse.ResultSet
	// Item is one unified answer.
	Item = dlse.Item
	// Cursor is an opaque pagination resume token.
	Cursor = dlse.Cursor
	// SearchOption tunes one Search call (WithLimit, WithCursor,
	// WithExplain).
	SearchOption = dlse.SearchOption
	// Explain is the operator-DAG introspection payload of a Search.
	Explain = dlse.Explain
	// OpStat is one explain entry: operator, wall time, rows, kernel stats.
	OpStat = dlse.OpStat
	// QueryError is a structured query-language error with position info.
	QueryError = dlse.QueryError
	// Image is an interleaved 8-bit RGB raster frame.
	Image = frame.Image
	// Video describes one indexed video document.
	Video = core.Video
	// Segment is a classified shot.
	Segment = core.Segment
	// Event is an inferred event-layer entity.
	Event = core.Event
	// Scene is a playable query answer: video + event interval.
	Scene = core.Scene
	// Interval is a half-open frame interval.
	Interval = core.Interval
	// MetaIndex builds a COBRA meta-index partition.
	MetaIndex = core.MetaIndex
	// DetectorStats is one FDE detector's accumulated runs, wall time and
	// failures.
	DetectorStats = fde.Stats
	// BroadcastConfig parameterizes synthetic broadcast generation.
	BroadcastConfig = synth.Config
	// Broadcast is a generated video with ground truth.
	Broadcast = synth.Video
	// SiteConfig parameterizes the synthetic Australian Open site.
	SiteConfig = webspace.SiteConfig
	// Site is a generated webspace site (object graph + pages).
	Site = webspace.Site
	// Request is a structured combined query.
	Request = dlse.Request
)

// The typed error taxonomy of the query surface. Callers branch with
// errors.Is; the HTTP layer maps them onto statuses.
var (
	// ErrParse reports malformed query text (wrapped by *QueryError with
	// the byte offset of the problem).
	ErrParse = dlse.ErrParse
	// ErrUnknownConcept reports a well-formed query naming a class, role,
	// or attribute the schema does not declare.
	ErrUnknownConcept = dlse.ErrUnknownConcept
	// ErrNoIndex reports a content-based query against an engine without
	// an indexed video library.
	ErrNoIndex = dlse.ErrNoIndex
	// ErrBadCursor reports a malformed cursor, or one minted for a
	// different query.
	ErrBadCursor = dlse.ErrBadCursor
)

// WithLimit sets the Search page size; the ResultSet carries a cursor to
// the remainder.
func WithLimit(n int) SearchOption { return dlse.WithLimit(n) }

// WithCursor resumes a paginated Search from a cursor returned by an
// earlier page of the same query.
func WithCursor(c Cursor) SearchOption { return dlse.WithCursor(c) }

// WithExplain attaches the planner's operator DAG with per-operator
// timings and kernel stats to the ResultSet.
func WithExplain() SearchOption { return dlse.WithExplain() }

// DefaultBroadcastConfig returns the standard synthetic broadcast
// configuration for the given seed.
func DefaultBroadcastConfig(seed int64) BroadcastConfig {
	return synth.DefaultConfig(seed)
}

// GenerateBroadcast renders a synthetic tennis broadcast with ground truth.
func GenerateBroadcast(cfg BroadcastConfig) (*Broadcast, error) {
	return synth.Generate(cfg)
}

// WriteSVF encodes frames to a Simple Video Format file.
func WriteSVF(path string, frames []*Image, fps int) error {
	return vidfmt.WriteFile(path, frames, fps, 0)
}

// Library is a content-based video library: the tennis FDE plus the COBRA
// meta-index it populates — stored as an ordered set of immutable index
// segments. IndexBatch grows the newest segment; Commit ingests a
// batch into a brand-new segment (the incremental-growth path), and Compact
// merges small adjacent segments back together. Splitting the corpus across
// segments never changes an answer: every read concatenates or routes
// across segments in global ID order, byte-identical to one monolithic
// index of the same videos.
//
// Concurrency: a Library is single-writer. Every write path builds its
// segments privately and installs them as a new view, so a reader holding a
// View (or an engine snapshot built from one) never sees a segment change.
type Library struct {
	// engine parses every video the library ingests. It is built once:
	// binding a grammar is not part of a commit.
	engine *fde.Engine
	// view is the current segment set: an immutable snapshot that every
	// write replaces. On a loaded library its segments decode on first
	// touch — reads stay lazy, the write paths resolve what they need.
	view    *core.SegmentedIndex
	nextSeg int64 // next segment ID
	// mapping is the memory mapping behind LoadLibraryFile, nil otherwise.
	mapping io.Closer
}

// NewLibrary creates an empty library with the standard tennis FDE.
func NewLibrary() (*Library, error) {
	return newEmptyLibrary(fde.DefaultTennisConfig())
}

// NewBlackBoxLibrary creates an empty library whose FDE runs the segment
// detector as the external program at segdet — fed each video as an SVF
// stream on stdin, answering in the SHOT line protocol cmd/segdet speaks —
// in place of the in-process one: the paper's black-box detector. Its
// index is the in-process library's when segdet is cmd/segdet.
func NewBlackBoxLibrary(segdet string) (*Library, error) {
	return newEmptyLibrary(fde.TennisConfig{SegmentImpl: fde.BlackBoxSegment(segdet)})
}

// newEmptyLibrary creates a library with one empty segment around a tennis
// FDE built from cfg.
func newEmptyLibrary(cfg fde.TennisConfig) (*Library, error) {
	return newLibrary(cfg, core.SingleSegment(core.NewMetaIndexAt(core.IDBase{}).Freeze()), 2, nil)
}

// newLibrary binds a tennis engine built from cfg around a segment set.
func newLibrary(cfg fde.TennisConfig, view *core.SegmentedIndex, nextSeg int64, mapping io.Closer) (*Library, error) {
	engine, err := fde.NewTennisEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &Library{engine: engine, view: view, nextSeg: nextSeg, mapping: mapping}, nil
}

// install replaces the segment set with a view at generation gen.
func (l *Library) install(parts []*core.Part, metas []core.SegmentMeta, gen int64) {
	view, err := core.NewSegmentedIndex(parts, metas, gen)
	if err != nil {
		// Callers extend parts and metas in lockstep; this cannot fail.
		panic(fmt.Sprintf("repro: inconsistent segment set: %v", err))
	}
	l.view = view
}

// View returns an immutable snapshot of the library's segment set: the
// read side every query path (and engine build) runs against. Later
// writes build new views; existing ones are undisturbed. On a loaded
// library the view is lazy: Stats and Generation come from the persisted
// manifest and each segment decodes only when a query (or a write) first
// touches it.
func (l *Library) View() *core.SegmentedIndex { return l.view }

// Close releases the memory mapping behind a library opened with
// LoadLibraryFile (a no-op otherwise). Views obtained from the library
// keep working for segments already decoded; close only when no reader
// can still trigger a first-touch decode. A long-lived server that
// hot-reloads should simply drop the old library and let the process
// lifetime own the mapping.
func (l *Library) Close() error {
	if l.mapping == nil {
		return nil
	}
	return l.mapping.Close()
}

// DetectorStats returns what every parse the library has run so far cost,
// per detector of the feature grammar, keyed by detector name.
func (l *Library) DetectorStats() map[string]DetectorStats { return l.engine.Stats() }

// IngestJob describes one video of a batch-ingestion request. Exactly one
// of Frames or Path should be set: with Path the SVF file is decoded inside
// the worker pool, overlapping decode I/O with detector compute.
type IngestJob struct {
	// Name identifies the document in the index; for Path jobs it defaults
	// to the file's base name.
	Name string
	// Frames is the in-memory raw-data layer.
	Frames []*Image
	// FPS is the frame rate for in-memory jobs.
	FPS int
	// Path locates an SVF file to decode lazily.
	Path string
}

// BatchOptions tunes Library.IndexBatch.
type BatchOptions struct {
	// Workers bounds the number of videos processed concurrently;
	// values < 1 select GOMAXPROCS.
	Workers int
	// ContinueOnError keeps the batch running after a job fails; the
	// default stops dispatching new jobs on the first failure. Either way
	// every failure is reported in its job's BatchResult.
	ContinueOnError bool
	// OnProgress, when set, is called after every finished job. Calls are
	// serialized.
	OnProgress func(BatchProgress)
}

// BatchProgress reports one finished job to the progress callback.
type BatchProgress struct {
	// Done counts finished jobs; Total is the batch size.
	Done, Total int
	// Name is the finished job's document name.
	Name string
	// Frames is the number of frames the job indexed (0 if it failed).
	Frames int
	// Duration is the job's decode+parse wall time.
	Duration time.Duration
	// Err is the job failure, nil on success.
	Err error
}

// BatchResult is the per-job outcome of IndexBatch, in job order.
type BatchResult struct {
	// Name is the document name.
	Name string
	// VideoID is the video's ID in the library index (0 if the job failed).
	VideoID int64
	// Frames is the number of frames indexed.
	Frames int
	// Held is the most decoded frames the job's parse held at once: the
	// longest shot plus one GOP for an SVF job.
	Held int
	// Duration is the decode+parse wall time.
	Duration time.Duration
	// Err is the job failure, nil on success.
	Err error
}

// IndexBatch indexes a batch of videos concurrently: jobs fan out across a
// bounded worker pool (the paper's Feature Detector Engine runs once per
// video, independently), each parse is materialized into a private
// one-video index, and on completion those are replayed in job order into a
// private copy of the newest segment, which replaces it in a new view at
// the same generation — so the resulting index, and SaveIndex output, are
// byte-identical at any worker count and to indexing the same jobs one
// IndexBatch call each, and a View taken before the batch keeps answering
// as it did.
//
// Cancellation stops dispatching new jobs; jobs already in flight finish
// and are merged, and every job that never ran reports the context error in
// its BatchResult. The returned error is the context error on
// cancellation; otherwise it is nil when every job succeeded, the first
// failure by default, or all failures joined when ContinueOnError is set.
func (l *Library) IndexBatch(ctx context.Context, jobs []IngestJob, opts BatchOptions) ([]BatchResult, error) {
	// Resolve the whole set first, so that a corrupt segment of a loaded
	// library surfaces here instead of being appended after.
	parts, err := l.view.Parts()
	if err != nil {
		return nil, err
	}
	metas := l.view.Metas()
	last := len(parts) - 1
	head, _, err := core.MergeSegmentRange(parts, metas, last, len(parts))
	if err != nil {
		return nil, err
	}
	results, runErr := l.runBatch(ctx, jobs, opts, head)
	parts[last] = head.Freeze()
	l.install(parts, metas, l.view.Generation())
	return results, runErr
}

// runBatch is the shared ingestion engine of IndexBatch (merging into a
// copy of the newest segment) and Commit (merging into a brand-new one).
func (l *Library) runBatch(ctx context.Context, jobs []IngestJob, opts BatchOptions, dst *core.MetaIndex) ([]BatchResult, error) {
	pjobs := make([]pipeline.Job, len(jobs))
	for i, job := range jobs {
		switch {
		case job.Path != "":
			pjobs[i] = pipeline.SVFJob(job.Path, job.Name)
		case len(job.Frames) > 0:
			pjobs[i] = pipeline.Job{
				Video: core.Video{
					Name: job.Name, Width: job.Frames[0].W, Height: job.Frames[0].H,
					FPS: job.FPS, Frames: len(job.Frames),
				},
				Frames: job.Frames,
			}
		default:
			return nil, fmt.Errorf("repro: job %d (%q): neither frames nor path", i, job.Name)
		}
	}
	in, err := pipeline.New(l.engine, pipeline.Config{
		Workers:         opts.Workers,
		ContinueOnError: opts.ContinueOnError,
		OnProgress: func(p pipeline.Progress) {
			if opts.OnProgress != nil {
				opts.OnProgress(BatchProgress{
					Done: p.Done, Total: p.Total, Name: p.Result.Name,
					Frames: p.Result.Frames, Duration: p.Result.Duration, Err: p.Result.Err,
				})
			}
		},
	})
	if err != nil {
		return nil, err
	}
	results, runErr := in.Run(ctx, pjobs)
	ids, mergeErr := in.MergeInto(dst)
	if mergeErr != nil {
		return nil, fmt.Errorf("repro: merging batch: %w", mergeErr)
	}
	out := make([]BatchResult, len(results))
	for i, r := range results {
		out[i] = BatchResult{
			Name: r.Name, VideoID: ids[r.Seq], Frames: r.Frames, Held: r.Held,
			Duration: r.Duration, Err: r.Err,
		}
	}
	if runErr != nil {
		return out, runErr
	}
	if opts.ContinueOnError {
		var errs []error
		for _, r := range out {
			if r.Err != nil {
				errs = append(errs, r.Err)
			}
		}
		if len(errs) > 0 {
			return out, errors.Join(errs...)
		}
	}
	return out, nil
}

// Commit ingests a batch of new videos into a brand-new index segment and
// appends it to the library's segment set — the incremental-growth path:
// nothing already indexed is touched or re-read, and a search engine built
// over the extended set answers exactly as if the whole corpus had been
// indexed monolithically. Job semantics (workers, progress, errors,
// cancellation) match IndexBatch. A commit whose jobs all fail (or that is
// cancelled before any video lands) appends no segment.
func (l *Library) Commit(ctx context.Context, jobs []IngestJob, opts BatchOptions) ([]BatchResult, error) {
	parts, err := l.view.Parts()
	if err != nil {
		return nil, err
	}
	base := parts[len(parts)-1].IDState()
	seg := core.NewMetaIndexAt(base)
	results, runErr := l.runBatch(ctx, jobs, opts, seg)
	if seg.Stats().Videos > 0 {
		l.install(append(parts, seg.Freeze()), append(l.view.Metas(), core.SegmentMeta{ID: l.nextSeg, Base: base}), l.view.Generation()+1)
		l.nextSeg++
	}
	return results, runErr
}

// Compact merges runs of adjacent segments whose combined video count
// stays within target (target <= 0 merges everything into one segment).
// Compaction preserves every ID and row order, so query answers — and the
// merged segments' serialized bytes — are identical before and after; only
// the partitioning changes. It reports whether anything was merged.
func (l *Library) Compact(target int) (bool, error) {
	// A single-segment set can't compact: answer from the manifest before
	// hydrating anything.
	if l.view.NumSegments() < 2 {
		return false, nil
	}
	parts, err := l.view.Parts()
	if err != nil {
		return false, err
	}
	metas := l.view.Metas()
	var nparts []*core.Part
	var nmetas []core.SegmentMeta
	changed := false
	for i := 0; i < len(parts); {
		j := i + 1
		run := parts[i].Stats().Videos
		for j < len(parts) {
			next := parts[j].Stats().Videos
			if target > 0 && run+next > target {
				break
			}
			run += next
			j++
		}
		if j-i >= 2 {
			merged, meta, err := core.MergeSegmentRange(parts, metas, i, j)
			if err != nil {
				return false, fmt.Errorf("repro: compacting: %w", err)
			}
			nparts = append(nparts, merged.Freeze())
			nmetas = append(nmetas, meta)
			changed = true
		} else {
			nparts = append(nparts, parts[i])
			nmetas = append(nmetas, metas[i])
		}
		i = j
	}
	if !changed {
		return false, nil
	}
	l.install(nparts, nmetas, l.view.Generation()+1)
	return true, nil
}

// Scenes returns all indexed scenes showing the given event kind
// ("net-play", "rally", "service").
func (l *Library) Scenes(kind string) ([]Scene, error) {
	return l.View().Scenes(kind)
}

// Segments returns the classified shots of a video.
func (l *Library) Segments(videoID int64) ([]Segment, error) {
	return l.View().SegmentsOf(videoID)
}

// SaveIndex persists the segmented meta-index as a segfile: the
// block-aligned, checksummed container that memory-maps with O(segments)
// cold start (LoadLibraryFile) and decodes segments lazily. Single-segment
// saves of the same videos are byte-identical however the segment was
// populated (sequentially or batched).
func (l *Library) SaveIndex(w io.Writer) error {
	parts, err := l.view.Parts()
	if err != nil {
		return err
	}
	return core.WriteSegfile(w, parts, l.view.Metas(), l.view.Generation())
}

// newLoadedLibrary finishes a load: attach a fresh FDE and derive the next
// segment ID from the manifest. Segments decode lazily from the view.
func newLoadedLibrary(view *core.SegmentedIndex, mapping io.Closer) (*Library, error) {
	nextSeg := int64(1)
	for _, m := range view.Metas() {
		if m.ID >= nextSeg {
			nextSeg = m.ID + 1
		}
	}
	return newLibrary(fde.DefaultTennisConfig(), view, nextSeg, mapping)
}

// LoadLibraryFile restores a library from a segfile by memory-mapping it:
// the open is O(segments) — one mmap plus a manifest parse — and a
// segment's bytes are decoded (and its pages faulted in) only when a query
// first touches it, so a larger-than-RAM corpus serves fine. A file that is
// not a segfile fails with an error naming it and wrapping
// core.ErrNotSegfile. The caller owns Close for the mapping's lifetime.
func LoadLibraryFile(path string) (*Library, error) {
	view, mapping, err := core.OpenSegmentedFile(path)
	if err != nil {
		return nil, err
	}
	return newLoadedLibrary(view, mapping)
}

// GrammarText returns the dependency graph as an indented text tree.
func GrammarText() string { return grammar.Tennis().Text() }

// GenerateSite builds the synthetic Australian Open site: the conceptual
// object graph plus flattened pages.
func GenerateSite(cfg SiteConfig) (*Site, error) {
	return webspace.GenerateAusOpen(cfg)
}

// DigitalLibrary is the complete demo engine: conceptual + text + video
// retrieval over one site.
//
// Internally it holds an immutable engine snapshot behind an atomic
// pointer: every query runs against the snapshot current at its start, and
// Swap (a full rebuild) or CommitToken (an incremental segment install)
// replace the snapshot without disturbing queries in flight. A
// DigitalLibrary is safe for concurrent use from any number of goroutines,
// Swap and CommitToken included.
type DigitalLibrary struct {
	engine atomic.Pointer[dlse.Engine]

	// commitMu serializes the writers of the backing library (CommitToken,
	// Compact, Swap) — queries never take it.
	commitMu sync.Mutex
	lib      *Library // commit target; guarded by commitMu
	wal      *WAL     // durability log; guarded by commitMu (see AttachWAL)

	// mu serializes snapshot installs and guards servers, the serving
	// layers that must follow them.
	mu      sync.Mutex
	servers []*Server
}

// LibraryOptions tunes how a DigitalLibrary builds its engines.
type LibraryOptions struct {
	// TextSegments partitions the site's pages into this many contiguous
	// full-text index segments, scored scatter-gather. Answers are
	// byte-identical for every value (segments freeze against union corpus
	// statistics); < 1 selects 1. Multi-segment text is what gives a
	// distributed router (cmd/dlrouter) keyword placement to spread.
	TextSegments int
	// TextSegfile, when set, caches the frozen text index in a
	// memory-mappable segfile at this path: a matching cache skips
	// re-tokenizing the site on startup and scores straight off the
	// mapped, zero-copy impact arrays; a missing or stale cache is rebuilt
	// and replaced atomically. Answers are byte-identical either way.
	TextSegfile string
	// VecSegfile, when set, caches the page embeddings of the vector lane
	// in a memory-mappable segfile at this path, skipping re-embedding the
	// site on startup. Same contract as TextSegfile: stale or missing
	// caches rebuild atomically, answers are byte-identical either way.
	// The file takes its page names from the TextSegfile cache, so it is
	// read only beside that one and rebuilt whenever the text cache is.
	VecSegfile string
}

// NewDigitalLibrary combines a generated site with an indexed video
// library. lib may be nil for a text/concept-only engine (CommitToken then
// reports an error until Swap installs a library).
func NewDigitalLibrary(site *Site, lib *Library) (*DigitalLibrary, error) {
	return NewDigitalLibraryWith(site, lib, LibraryOptions{})
}

// NewDigitalLibraryWith is NewDigitalLibrary with explicit engine options.
// The page lanes built here serve for the library's lifetime: Swap and
// CommitToken replace only the video side. The library keeps the site's
// object graph, not its pages.
func NewDigitalLibraryWith(site *Site, lib *Library, opts LibraryOptions) (*DigitalLibrary, error) {
	var view *core.SegmentedIndex
	if lib != nil {
		view = lib.View()
	}
	e, err := dlse.NewSegmented(site, view, dlse.Options{
		TextSegments: opts.TextSegments, TextSegfile: opts.TextSegfile, VecSegfile: opts.VecSegfile,
	})
	if err != nil {
		return nil, err
	}
	dl := &DigitalLibrary{lib: lib}
	dl.engine.Store(e)
	return dl, nil
}

// Search is the unified query entrypoint: one call covering the
// query-language string, the structured request, the keyword baseline,
// the embedding-similarity and hybrid (RRF-fused) lanes, and the scene
// lookup (Query's six forms), with cursor pagination
// (WithLimit/WithCursor) and optional explain plans (WithExplain). A large
// answer is read by walking its cursor.
//
// Pagination is deterministic: on an unchanged snapshot, walking all pages
// via cursors reproduces the unpaginated answer exactly. Failures use the
// typed taxonomy (ErrParse, ErrUnknownConcept, ErrNoIndex, ErrBadCursor).
func (dl *DigitalLibrary) Search(ctx context.Context, q Query, opts ...SearchOption) (*ResultSet, error) {
	return dl.engine.Load().Search(ctx, q, opts...)
}

// Swap atomically replaces the library's engine snapshot with one over the
// same site and page lanes and the given (re)indexed video library (nil for
// a text/concept-only engine). It reads no segment, so it cannot fail.
// Queries in flight finish on the snapshot they started with; servers
// created by NewServer follow the swap and can never serve results of a
// superseded snapshot from their caches.
func (dl *DigitalLibrary) Swap(lib *Library) {
	dl.commitMu.Lock()
	defer dl.commitMu.Unlock()
	var view *core.SegmentedIndex
	if lib != nil {
		view = lib.View()
	}
	dl.lib = lib
	dl.install(dl.engine.Load().WithVideo(view))
}

// install atomically publishes an engine snapshot to the library and every
// registered server.
func (dl *DigitalLibrary) install(e *dlse.Engine) {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	dl.engine.Store(e)
	for _, s := range dl.servers {
		s.Swap(e)
	}
}

// Compact merges small adjacent segments of the backing library (see
// Library.Compact) and, if anything changed, installs a snapshot over the
// compacted set. Safe to run in the background: answers are identical
// before, during, and after — only the partitioning changes.
func (dl *DigitalLibrary) Compact(target int) (bool, error) {
	dl.commitMu.Lock()
	defer dl.commitMu.Unlock()
	if dl.lib == nil {
		return false, nil
	}
	changed, err := dl.lib.Compact(target)
	if err != nil || !changed {
		return false, err
	}
	dl.install(dl.engine.Load().WithVideo(dl.lib.View()))
	return true, nil
}

// Snapshot identifies the current engine snapshot; it changes on every
// Swap. ResultSets and cursors carry the snapshot they were computed on.
func (dl *DigitalLibrary) Snapshot() int64 { return dl.engine.Load().Snapshot() }

// Server is the long-lived query-serving layer: a sharded result cache over
// the engine that keeps the answers asked again (a query's first answer
// enters a small probation segment, a second ask protects it) plus an
// http.Handler exposing /v2/search (cursor pagination, explain plans), the
// /v2 admin endpoints (commit, compact, reload) and /healthz as JSON, and
// /metrics in Prometheus text format. It is what cmd/dlserve runs.
type Server = serve.Server

// ServerOptions tunes NewServer (cache capacity and the bound on
// concurrently executing queries).
type ServerOptions = serve.Options

// NewServer wraps a digital library in the serving layer, giving importers
// the same cached, concurrency-safe query path the dlserve daemon uses.
// The server is registered with the library until Release: a later Swap
// propagates to it, atomically and without invalidating in-flight requests.
func NewServer(lib *DigitalLibrary, opts ServerOptions) *Server {
	lib.mu.Lock()
	defer lib.mu.Unlock()
	s := serve.New(lib.engine.Load(), opts)
	lib.servers = append(lib.servers, s)
	return s
}

// Release unregisters a server NewServer made over dl, once it serves no
// more requests: installs stop swapping it, and its cached answers are
// dropped. Releasing a server twice, or one dl does not hold, does nothing
// more.
func (dl *DigitalLibrary) Release(s *Server) {
	dl.mu.Lock()
	dl.servers = slices.DeleteFunc(dl.servers, func(t *Server) bool { return t == s })
	dl.mu.Unlock()
	s.InvalidateCache()
}

// MotivatingQuery returns the paper's running example in query-language
// form.
func MotivatingQuery() string { return dlse.MotivatingQueryText }
