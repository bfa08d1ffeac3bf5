package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/synth"
)

var (
	batchCorpusOnce sync.Once
	batchCorpus     []*synth.Video
)

func batchTestCorpus(t *testing.T) []*synth.Video {
	t.Helper()
	batchCorpusOnce.Do(func() {
		cfg := synth.DefaultConfig(700)
		cfg.Shots = 3
		vids, err := synth.GenerateCorpus(cfg, 6)
		if err != nil {
			panic(err)
		}
		batchCorpus = vids
	})
	return batchCorpus
}

// indexOne indexes one in-memory video as a one-job IndexBatch and returns
// its video ID.
func indexOne(t testing.TB, lib *Library, name string, frames []*Image, fps int) int64 {
	t.Helper()
	res, err := lib.IndexBatch(context.Background(), []IngestJob{{Name: name, Frames: frames, FPS: fps}}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res[0].VideoID
}

func batchJobs(vids []*synth.Video) []IngestJob {
	jobs := make([]IngestJob, len(vids))
	for i, v := range vids {
		jobs[i] = IngestJob{Name: fmt.Sprintf("clip-%02d", i), Frames: v.Frames, FPS: v.FPS}
	}
	return jobs
}

// The tentpole guarantee: concurrent batch ingestion is indistinguishable
// from sequential indexing — same jobs, byte-identical SaveIndex output.
func TestIndexBatchMatchesSequential(t *testing.T) {
	vids := batchTestCorpus(t)
	jobs := batchJobs(vids)

	seqLib, err := NewLibrary()
	if err != nil {
		t.Fatal(err)
	}
	seqIDs := make([]int64, len(jobs))
	for i, job := range jobs {
		seqIDs[i] = indexOne(t, seqLib, job.Name, job.Frames, job.FPS)
	}
	var want bytes.Buffer
	if err := seqLib.SaveIndex(&want); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			lib, err := NewLibrary()
			if err != nil {
				t.Fatal(err)
			}
			results, err := lib.IndexBatch(context.Background(), jobs, BatchOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("job %d: %v", i, r.Err)
				}
				if r.VideoID != seqIDs[i] {
					t.Fatalf("job %d: video ID %d, sequential got %d", i, r.VideoID, seqIDs[i])
				}
				if r.Frames != len(vids[i].Frames) {
					t.Fatalf("job %d: %d frames", i, r.Frames)
				}
			}
			var got bytes.Buffer
			if err := lib.SaveIndex(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("batch index (workers=%d) differs from sequential: %d vs %d bytes",
					workers, got.Len(), want.Len())
			}
		})
	}
}

// Cancellation stops dispatch, reports context.Canceled for jobs that never
// ran, and still merges the jobs that completed.
func TestIndexBatchCancellation(t *testing.T) {
	vids := batchTestCorpus(t)
	jobs := batchJobs(vids)
	lib, err := NewLibrary()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results, err := lib.IndexBatch(ctx, jobs, BatchOptions{
		Workers: 1,
		OnProgress: func(p BatchProgress) {
			if p.Done == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("IndexBatch err = %v, want context.Canceled", err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	done, canceled := 0, 0
	for _, r := range results {
		switch {
		case r.Err == nil:
			done++
			if r.VideoID == 0 {
				t.Fatalf("completed job %q not merged", r.Name)
			}
		case errors.Is(r.Err, context.Canceled):
			canceled++
		default:
			t.Fatalf("job %q: unexpected error %v", r.Name, r.Err)
		}
	}
	if done == 0 {
		t.Fatal("no job completed before cancellation")
	}
	if canceled == 0 {
		t.Fatal("no job reports context.Canceled")
	}
	if n := newest(t, lib).Stats().Videos; n != done {
		t.Fatalf("index holds %d videos, %d jobs completed", n, done)
	}
}

// Path-based jobs decode in the workers; failures are collected per job
// with ContinueOnError while the rest of the batch lands — here around a
// failing job in the middle, merged into a library that already holds a
// video, so every reported VideoID has to be the merged one.
func TestIndexBatchSVFAndErrors(t *testing.T) {
	vids := batchTestCorpus(t)
	dir := t.TempDir()
	var paths [2]string
	for i, v := range vids[:2] {
		paths[i] = filepath.Join(dir, fmt.Sprintf("match-%d.svf", i))
		if err := WriteSVF(paths[i], v.Frames, v.FPS); err != nil {
			t.Fatal(err)
		}
	}
	jobs := []IngestJob{{Path: paths[0]}, {Path: filepath.Join(dir, "missing.svf")}, {Path: paths[1]}}

	lib, err := NewLibrary()
	if err != nil {
		t.Fatal(err)
	}
	indexOne(t, lib, "existing", vids[2].Frames, vids[2].FPS)
	results, err := lib.IndexBatch(context.Background(), jobs, BatchOptions{
		Workers: 2, ContinueOnError: true,
	})
	if err == nil {
		t.Fatal("missing file did not surface in batch error")
	}
	if results[0].Name != "match-0" || results[2].Name != "match-1" {
		t.Fatalf("names from paths: %q, %q", results[0].Name, results[2].Name)
	}
	for i, r := range []BatchResult{results[0], results[2]} {
		if r.Err != nil {
			t.Fatalf("job %q failed: %v", r.Name, r.Err)
		}
		if want := int64(i + 2); r.VideoID != want {
			t.Fatalf("job %q: video ID %d, want %d", r.Name, r.VideoID, want)
		}
		if v, err := newest(t, lib).VideoByID(r.VideoID); err != nil || v.Name != r.Name {
			t.Fatalf("job %q: video ID %d names %q (%v)", r.Name, r.VideoID, v.Name, err)
		}
	}
	if results[1].Err == nil || results[1].VideoID != 0 {
		t.Fatalf("missing file: err=%v videoID=%d", results[1].Err, results[1].VideoID)
	}
	if st := newest(t, lib).Stats(); st.Videos != 3 {
		t.Fatalf("index holds %d videos, want 3", st.Videos)
	}
}

func TestIndexBatchValidation(t *testing.T) {
	lib, err := NewLibrary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.IndexBatch(context.Background(), []IngestJob{{Name: "empty"}}, BatchOptions{}); err == nil {
		t.Fatal("job with neither frames nor path accepted")
	}
	results, err := lib.IndexBatch(context.Background(), nil, BatchOptions{})
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: %v, %v", results, err)
	}
}
