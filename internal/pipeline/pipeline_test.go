package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fde"
	"repro/internal/frame"
	"repro/internal/shotdet"
	"repro/internal/synth"
)

// ------------------------------------------------------------ worker pool

func TestForEachRunsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var ran atomic.Int64
		errs := ForEach(context.Background(), workers, 20, func(context.Context, int) error {
			ran.Add(1)
			return nil
		})
		if ran.Load() != 20 {
			t.Fatalf("workers=%d: ran %d of 20", workers, ran.Load())
		}
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	var mu sync.Mutex
	ForEach(context.Background(), workers, 30, func(context.Context, int) error {
		n := cur.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		defer cur.Add(-1)
		return nil
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent items, bound is %d", p, workers)
	}
}

func TestForEachPerItemErrors(t *testing.T) {
	boom := errors.New("boom")
	errs := ForEach(context.Background(), 4, 10, func(_ context.Context, i int) error {
		if i%3 == 0 {
			return fmt.Errorf("item %d: %w", i, boom)
		}
		return nil
	})
	for i, err := range errs {
		if (i%3 == 0) != (err != nil) {
			t.Fatalf("item %d: err = %v", i, err)
		}
		if err != nil && !errors.Is(err, boom) {
			t.Fatalf("item %d: err = %v", i, err)
		}
	}
	if err := errors.Join(errs...); !errors.Is(err, boom) {
		t.Fatalf("joined errors = %v", err)
	}
}

func TestForEachCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	errs := ForEach(ctx, 2, 50, func(ctx context.Context, i int) error {
		if started.Add(1) == 4 {
			cancel()
		}
		return ctx.Err()
	})
	if started.Load() == 50 {
		t.Fatal("cancellation did not stop dispatch")
	}
	canceled := 0
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("no item reported context.Canceled")
	}
	// Every never-started item must carry the context error.
	if got := int(started.Load()); canceled < 50-got {
		t.Fatalf("started %d but only %d items report cancellation", got, canceled)
	}
}

func TestForEachEmpty(t *testing.T) {
	if errs := ForEach(context.Background(), 4, 0, nil); len(errs) != 0 {
		t.Fatalf("empty batch returned %d errors", len(errs))
	}
}

// -------------------------------------------------------------- ingestor

var (
	testCorpusOnce sync.Once
	testCorpus     []*synth.Video
)

func corpus(t *testing.T) []*synth.Video {
	t.Helper()
	testCorpusOnce.Do(func() {
		cfg := synth.DefaultConfig(600)
		cfg.Shots = 3
		vids, err := synth.GenerateCorpus(cfg, 4)
		if err != nil {
			panic(err)
		}
		testCorpus = vids
	})
	return testCorpus
}

func corpusJobs(vids []*synth.Video) []Job {
	jobs := make([]Job, len(vids))
	for i, v := range vids {
		jobs[i] = Job{
			Video: core.Video{
				Name: fmt.Sprintf("clip-%02d", i), Width: v.W, Height: v.H,
				FPS: v.FPS, Frames: len(v.Frames),
			},
			Frames: v.Frames,
		}
	}
	return jobs
}

func newEngine(t *testing.T) *fde.Engine {
	t.Helper()
	engine, err := fde.NewTennisEngine(fde.DefaultTennisConfig())
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// indexSequential is the reference build: one engine, one index, the given
// in-memory jobs in order.
func indexSequential(t *testing.T, idx *core.MetaIndex, jobs ...Job) {
	t.Helper()
	engine := newEngine(t)
	for _, job := range jobs {
		parse, err := engine.Process(job.Video, job.Frames)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fde.IndexResult(parse, idx); err != nil {
			t.Fatal(err)
		}
	}
}

func newIndex(t *testing.T) *core.MetaIndex {
	t.Helper()
	idx, err := core.NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func serialized(t *testing.T, idx *core.MetaIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteSegfile(&buf, []*core.Part{idx.Freeze()}, []core.SegmentMeta{{ID: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestIngestorMatchesSequential(t *testing.T) {
	vids := corpus(t)
	jobs := corpusJobs(vids)

	seqIdx := newIndex(t)
	indexSequential(t, seqIdx, jobs...)
	want := serialized(t, seqIdx)

	var progress []Progress
	in, err := New(newEngine(t), Config{Workers: 4, OnProgress: func(p Progress) {
		progress = append(progress, p)
	}})
	if err != nil {
		t.Fatal(err)
	}
	results, err := in.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", r.Seq, r.Err)
		}
		if r.Frames != len(jobs[r.Seq].Frames) {
			t.Fatalf("job %d parsed %d frames", r.Seq, r.Frames)
		}
	}
	if len(progress) != len(jobs) || progress[len(progress)-1].Done != len(jobs) {
		t.Fatalf("progress callbacks = %d, final = %+v", len(progress), progress[len(progress)-1])
	}
	merged := newIndex(t)
	if _, err := in.MergeInto(merged); err != nil {
		t.Fatal(err)
	}
	if got := serialized(t, merged); !bytes.Equal(got, want) {
		t.Fatalf("parallel ingest serialization differs from sequential (%d vs %d bytes)",
			len(got), len(want))
	}
}

// TestIngestorMergeIntoExistingWithFailure covers the merge at every worker
// count with a failing job in the middle of the batch and a destination
// that already holds a video: the merged bytes must equal the sequential
// build of the same surviving jobs, and the seq -> ID map must name them.
func TestIngestorMergeIntoExistingWithFailure(t *testing.T) {
	jobs := corpusJobs(corpus(t))
	existing := jobs[0]
	existing.Video.Name = "existing"
	broken := Job{
		Video: core.Video{Name: "broken"},
		Open: func() (core.Video, frame.Source, error) {
			return core.Video{}, nil, errors.New("decode failed")
		},
	}
	batch := []Job{jobs[0], jobs[1], broken, jobs[2], jobs[3]}

	seqIdx := newIndex(t)
	indexSequential(t, seqIdx, existing)
	indexSequential(t, seqIdx, jobs...)
	want := serialized(t, seqIdx)

	for _, workers := range []int{1, 2, 4} {
		in, err := New(newEngine(t), Config{Workers: workers, ContinueOnError: true})
		if err != nil {
			t.Fatal(err)
		}
		results, err := in.Run(context.Background(), batch)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		dst := newIndex(t)
		indexSequential(t, dst, existing)
		ids, err := in.MergeInto(dst)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := serialized(t, dst); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: merged bytes differ from sequential (%d vs %d bytes)",
				workers, len(got), len(want))
		}
		if len(ids) != len(batch)-1 {
			t.Fatalf("workers=%d: merged %d videos, want %d", workers, len(ids), len(batch)-1)
		}
		for seq, r := range results {
			id, ok := ids[seq]
			if ok != (r.Err == nil) {
				t.Fatalf("workers=%d: job %d err=%v but in mapping=%t", workers, seq, r.Err, ok)
			}
			if !ok {
				continue
			}
			v, err := dst.Freeze().VideoByID(id)
			if err != nil || v.Name != batch[seq].Video.Name {
				t.Fatalf("workers=%d: job %d (%s) mapped to video %d = %q, %v",
					workers, seq, batch[seq].Video.Name, id, v.Name, err)
			}
		}
	}
}

// TestIngestorCancelledRunMergesFinishedJobs cancels a run from inside a
// job: that job still finishes, later ones never start, and the merge holds
// exactly the jobs whose results report success.
func TestIngestorCancelledRunMergesFinishedJobs(t *testing.T) {
	jobs := corpusJobs(corpus(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceller := jobs[1]
	jobs[1] = Job{Open: func() (core.Video, frame.Source, error) {
		cancel()
		return canceller.Video, frame.Frames(canceller.Frames), nil
	}}
	in, err := New(newEngine(t), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	results, err := in.Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run err = %v, want context.Canceled", err)
	}
	dst := newIndex(t)
	ids, err := in.MergeInto(dst)
	if err != nil {
		t.Fatal(err)
	}
	for seq, r := range results {
		if _, ok := ids[seq]; ok != (r.Err == nil) {
			t.Fatalf("job %d err=%v but in mapping=%t", seq, r.Err, ok)
		}
	}
	if len(ids) != 2 || dst.Stats().Videos != 2 {
		t.Fatalf("merged %d videos (index holds %d), want jobs 0 and 1", len(ids), dst.Stats().Videos)
	}
	want := newIndex(t)
	indexSequential(t, want, jobs[0], canceller)
	if !bytes.Equal(serialized(t, dst), serialized(t, want)) {
		t.Fatal("cancelled run's merge differs from the sequential build of the finished jobs")
	}
}

func TestIngestorOpenAndErrors(t *testing.T) {
	vids := corpus(t)
	jobs := corpusJobs(vids[:2])
	openErr := errors.New("decode failed")
	jobs = append(jobs, Job{
		Video: core.Video{Name: "broken"},
		Open: func() (core.Video, frame.Source, error) {
			return core.Video{}, nil, openErr
		},
	})
	v := vids[2]
	jobs = append(jobs, Job{
		Open: func() (core.Video, frame.Source, error) {
			return core.Video{
				Name: "opened", Width: v.W, Height: v.H, FPS: v.FPS,
				Frames: len(v.Frames),
			}, frame.Frames(v.Frames), nil
		},
	})

	in, err := New(newEngine(t), Config{Workers: 2, ContinueOnError: true})
	if err != nil {
		t.Fatal(err)
	}
	results, err := in.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[2].Err, openErr) {
		t.Fatalf("job 2 err = %v", results[2].Err)
	}
	if results[3].Err != nil || results[3].Name != "opened" {
		t.Fatalf("lazy-open job = %+v", results[3])
	}
	dst, err := core.NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	ids, err := in.MergeInto(dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("merged %d videos, want 3 (failed job excluded)", len(ids))
	}
	if _, ok := ids[2]; ok {
		t.Fatal("failed job present in merge mapping")
	}
	if v, err := dst.Freeze().VideoByID(ids[3]); err != nil || v.Name != "opened" {
		t.Fatalf("lazy-open job merged as %+v, %v", v, err)
	}
}

func TestIngestorNilEngine(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil engine accepted")
	}
}

// Run alone picks a parse's histogram workers, from the jobs it has in
// flight: a video alone in flight — one job, or a one-worker pool — parses
// on every CPU (0), and with several in flight each parse gets one
// goroutine. The segment detector here only records what its parse was
// given.
func TestRunPicksHistogramWorkersByJobsInFlight(t *testing.T) {
	var (
		mu   sync.Mutex
		seen []int
	)
	cfg := fde.DefaultTennisConfig()
	cfg.SegmentImpl = func(ctx *fde.Context) error {
		mu.Lock()
		seen = append(seen, ctx.Workers)
		mu.Unlock()
		ctx.Set("shots", []shotdet.Shot{})
		ctx.Set("classes", []string{})
		return nil
	}
	engine, err := fde.NewTennisEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{
		Video:  core.Video{Name: "v", Width: 8, Height: 8, FPS: 25, Frames: 1},
		Frames: []*frame.Image{frame.New(8, 8)},
	}
	for _, c := range []struct{ workers, jobs, want int }{
		{workers: 8, jobs: 1, want: 0},
		{workers: 1, jobs: 3, want: 0},
		{workers: 2, jobs: 3, want: 1},
		{workers: 8, jobs: 3, want: 1},
	} {
		in, err := New(engine, Config{Workers: c.workers})
		if err != nil {
			t.Fatal(err)
		}
		seen = nil
		jobs := make([]Job, c.jobs)
		for i := range jobs {
			jobs[i] = job
		}
		if _, err := in.Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		if len(seen) != c.jobs {
			t.Fatalf("workers=%d, %d jobs: %d parses", c.workers, c.jobs, len(seen))
		}
		for _, got := range seen {
			if got != c.want {
				t.Errorf("workers=%d, %d jobs: a parse got %d histogram workers, want %d", c.workers, c.jobs, got, c.want)
			}
		}
	}
}
