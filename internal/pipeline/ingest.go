// Package pipeline implements the concurrent batch-ingestion subsystem: a
// worker pool that fans per-video Feature Detector Engine parses out across
// CPUs, materializing each parse into a private one-video meta-index and
// appending those to the destination in job order. The paper's
// architecture separates the offline indexing pipeline (FDE -> meta-index)
// from the online search engine precisely so the former can be scaled out;
// this package is that seam: job -> worker -> per-job index -> merge.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fde"
	"repro/internal/frame"
	"repro/internal/vidfmt"
)

// Job is one video to ingest. Either Frames is set, or Open returns a frame
// source on demand — the latter keeps decode I/O inside the worker pool so it
// overlaps with detector compute on other workers, and the detectors decode
// only the frames they scan.
type Job struct {
	// Video carries the document metadata. When Open is set the metadata
	// returned by Open wins.
	Video core.Video
	// Frames is the decoded raw-data layer, if already in memory.
	Frames []*frame.Image
	// Open opens the video's frames (e.g. an SVF file). A source that is an
	// io.Closer is closed when the job's parse ends.
	Open func() (core.Video, frame.Source, error)
}

// SVFJob builds a Job that opens an SVF file inside the worker pool; the
// detectors decode its frames through the file's frame index. name
// defaults to the file's base name without extension.
func SVFJob(path, name string) Job {
	if name == "" {
		name = vidfmt.BaseName(path)
	}
	return Job{
		Video: core.Video{Name: name},
		Open: func() (core.Video, frame.Source, error) {
			f, err := vidfmt.Open(path)
			if err != nil {
				return core.Video{}, nil, err
			}
			meta := f.Meta()
			return core.Video{
				Name: name, Path: path,
				Width: meta.Width, Height: meta.Height,
				FPS: meta.FPS, Frames: meta.Frames,
			}, f, nil
		},
	}
}

// Result reports the outcome of one job.
type Result struct {
	// Seq is the job's index in the submitted slice.
	Seq int
	// Name is the document name.
	Name string
	// Frames is the number of frames parsed.
	Frames int
	// Held is the most decoded frames the parse held at once
	// (fde.Result.Held).
	Held int
	// Duration is the wall-clock time spent decoding and parsing.
	Duration time.Duration
	// Err is the job failure, nil on success. Jobs never started after a
	// cancellation report the context error.
	Err error
}

// Progress is delivered to the OnProgress callback after every job.
type Progress struct {
	// Done counts finished jobs (successful or failed); Total is the batch
	// size.
	Done, Total int
	// Result is the finished job's outcome.
	Result Result
}

// Config tunes an Ingestor.
type Config struct {
	// Workers bounds pool concurrency; < 1 selects GOMAXPROCS.
	Workers int
	// ContinueOnError keeps the batch running after a job fails; the
	// default stops dispatching new jobs on the first failure.
	ContinueOnError bool
	// OnProgress, when set, is invoked after every finished job. Calls are
	// serialized; the callback must not block for long.
	OnProgress func(Progress)
}

// Ingestor runs batches of videos through one FDE, holding the parsed
// videos of the latest Run until MergeInto appends them to an index.
type Ingestor struct {
	engine *fde.Engine
	cfg    Config
	// parts holds the latest Run's output by job sequence number: the
	// private one-video index of a job that succeeded, frozen, nil otherwise. Each
	// slot is written only by the worker that owns the job and read only
	// after the pool has drained, so no lock is needed.
	parts []*core.Part

	mu sync.Mutex // serializes OnProgress and the per-Run done counter
}

// New creates an Ingestor around a fully bound engine.
func New(engine *fde.Engine, cfg Config) (*Ingestor, error) {
	if engine == nil {
		return nil, fmt.Errorf("pipeline: nil engine")
	}
	cfg.Workers = Workers(cfg.Workers)
	return &Ingestor{engine: engine, cfg: cfg}, nil
}

// Run ingests the batch: every job is decoded, parsed by the FDE and
// materialized into its own index, with at most Config.Workers jobs in
// flight; the parsed videos replace those of any earlier Run. It
// always returns one Result per job, in job order. The error is the first
// job failure (nil with ContinueOnError unless the context was canceled);
// on cancellation it is ctx.Err() and the results report which jobs
// completed before the stop.
//
// The jobs in flight decide each parse's histogram workers
// (fde.Context.Workers): a video alone in flight — a one-video commit, a
// one-worker batch — spreads each frame's histogram over every CPU; with
// several in flight the job fan-out fills the CPUs, so each parse gets one.
func (in *Ingestor) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	results := make([]Result, len(jobs))
	in.parts = make([]*core.Part, len(jobs))
	hist := 0 // every CPU
	if inFlight(in.cfg.Workers, len(jobs)) > 1 {
		hist = 1
	}
	runCtx := ctx
	var cancel context.CancelFunc
	if !in.cfg.ContinueOnError {
		runCtx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	total := len(jobs)
	done := 0
	errs := ForEach(runCtx, in.cfg.Workers, len(jobs), func(jctx context.Context, seq int) error {
		res, part := in.runJob(jctx, seq, jobs[seq], hist)
		results[seq], in.parts[seq] = res, part
		in.mu.Lock()
		done++
		if in.cfg.OnProgress != nil {
			in.cfg.OnProgress(Progress{Done: done, Total: total, Result: res})
		}
		in.mu.Unlock()
		if res.Err != nil && cancel != nil {
			cancel()
		}
		return res.Err
	})
	// Jobs skipped by cancellation never ran runJob; surface the context
	// error in their results.
	for seq, err := range errs {
		if err != nil && results[seq].Err == nil {
			results[seq] = Result{Seq: seq, Name: jobs[seq].Video.Name, Err: err}
		}
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	if !in.cfg.ContinueOnError {
		// The internal fail-fast cancel makes racing jobs report
		// context.Canceled; surface the failure that caused the stop, not
		// the cancellations it induced.
		var canceled error
		for _, err := range errs {
			switch {
			case err == nil:
			case errors.Is(err, context.Canceled):
				if canceled == nil {
					canceled = err
				}
			default:
				return results, err
			}
		}
		return results, canceled
	}
	return results, nil
}

// runJob decodes and parses one job with hist histogram workers and
// returns its outcome and, on success, its private one-video index.
func (in *Ingestor) runJob(ctx context.Context, seq int, job Job, hist int) (Result, *core.Part) {
	res := Result{Seq: seq, Name: job.Video.Name}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res, nil
	}
	start := time.Now()
	fail := func(err error) (Result, *core.Part) {
		res.Err = fmt.Errorf("pipeline: job %d (%s): %w", seq, res.Name, err)
		res.Duration = time.Since(start)
		return res, nil
	}
	v, src := job.Video, frame.Source(frame.Frames(job.Frames))
	if job.Open != nil {
		var err error
		v, src, err = job.Open()
		if err != nil {
			return fail(err)
		}
		if c, ok := src.(io.Closer); ok {
			defer c.Close() // only read
		}
		res.Name = v.Name
	}
	if src.Len() == 0 {
		return fail(errors.New("no frames"))
	}
	parse, err := in.engine.ProcessSource(v, src, hist)
	if err != nil {
		return fail(err)
	}
	idx := core.NewMetaIndexAt(core.IDBase{})
	if _, err := fde.IndexResult(parse, idx); err != nil {
		return fail(err)
	}
	res.Frames, res.Held = src.Len(), parse.Held
	res.Duration = time.Since(start)
	return res, idx.Freeze()
}

// MergeInto appends each successful job's private index of the latest Run
// to dst in job order, through MetaIndex.Append from base zero — each
// shifted past dst's IDs, so dst ends up byte-identical to indexing those
// jobs sequentially — and returns the job-sequence -> merged-video-ID
// mapping. Jobs that failed or never ran are absent from the mapping. It
// does not fail; the error result keeps the signature the bench module
// compiles against.
func (in *Ingestor) MergeInto(dst *core.MetaIndex) (map[int]int64, error) {
	ids := make(map[int]int64, len(in.parts))
	for seq, part := range in.parts {
		if part == nil {
			continue
		}
		dst.Append(part, core.IDBase{})
		ids[seq] = dst.IDState().Video // a job's index holds its one video
	}
	return ids, nil
}
