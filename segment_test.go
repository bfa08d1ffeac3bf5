package repro

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// segLibKinds returns the event kinds the corpus actually produced scenes
// for, so assertions never depend on a particular detector outcome.
func segLibKinds(t *testing.T, lib *Library) []string {
	t.Helper()
	var kinds []string
	for _, kind := range []string{"rally", "net-play", "service"} {
		scenes, err := lib.Scenes(kind)
		if err != nil {
			t.Fatal(err)
		}
		if len(scenes) > 0 {
			kinds = append(kinds, kind)
		}
	}
	if len(kinds) == 0 {
		t.Fatal("corpus produced no scenes of any kind")
	}
	return kinds
}

// buildSegmentedLib indexes the corpus as an initial batch followed by one
// Commit per remaining group, producing 1 + len(groups) segments.
func buildSegmentedLib(t *testing.T, jobs []IngestJob, first int, groups ...int) *Library {
	t.Helper()
	lib, err := NewLibrary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.IndexBatch(context.Background(), jobs[:first], BatchOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	at := first
	for _, g := range groups {
		if _, err := lib.Commit(context.Background(), jobs[at:at+g], BatchOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		at += g
	}
	if at != len(jobs) {
		t.Fatalf("groups cover %d of %d jobs", at, len(jobs))
	}
	return lib
}

// TestSegmentedEngineMatchesMonolithic is the PR's acceptance lock: the
// same corpus built as one segment, as batch+commit (2 segments), and as a
// chain of commits (3 segments) answers every query byte-identically —
// same scenes, same ordering, same pagination — and a segmented library
// round-trips through SaveIndex/LoadLibraryFile.
func TestSegmentedEngineMatchesMonolithic(t *testing.T) {
	vids := batchTestCorpus(t)
	jobs := batchJobs(vids)
	ctx := context.Background()

	mono := buildSegmentedLib(t, jobs, len(jobs))
	libs := map[string]*Library{
		"segs=2": buildSegmentedLib(t, jobs, 3, 3),
		"segs=3": buildSegmentedLib(t, jobs, 2, 2, 2),
	}
	kinds := segLibKinds(t, mono)

	if got := mono.View().NumSegments(); got != 1 {
		t.Fatalf("monolithic build has %d segments", got)
	}
	if got := libs["segs=3"].View().NumSegments(); got != 3 {
		t.Fatalf("commit chain has %d segments, want 3", got)
	}

	site := v2Site(t)
	dlMono, err := NewDigitalLibrary(site, mono)
	if err != nil {
		t.Fatal(err)
	}
	for name, lib := range libs {
		lib := lib
		t.Run(name, func(t *testing.T) {
			if lib.View().Stats() != mono.View().Stats() {
				t.Fatalf("stats %+v vs %+v", lib.View().Stats(), mono.View().Stats())
			}
			dl, err := NewDigitalLibrary(site, lib)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range kinds {
				// Library-level scene reads.
				want, err := mono.Scenes(kind)
				if err != nil {
					t.Fatal(err)
				}
				got, err := lib.Scenes(kind)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("Scenes(%q) diverge", kind)
				}
				// Engine-level scene queries, unpaginated and paginated.
				wantRS, err := dlMono.Search(ctx, Query{Scenes: kind})
				if err != nil {
					t.Fatal(err)
				}
				gotRS, err := dl.Search(ctx, Query{Scenes: kind})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(wantRS.Items, gotRS.Items) {
					t.Fatalf("scene query %q diverges", kind)
				}
				var walked []Item
				var cur Cursor
				for {
					page, err := dl.Search(ctx, Query{Scenes: kind}, WithLimit(2), WithCursor(cur))
					if err != nil {
						t.Fatal(err)
					}
					walked = append(walked, page.Items...)
					if page.Cursor == "" {
						break
					}
					cur = page.Cursor
				}
				if !reflect.DeepEqual(walked, wantRS.Items) {
					t.Fatalf("paginated walk of %q diverges from monolithic answer", kind)
				}
			}
			// Persistence round-trip keeps the segmentation and the answers.
			lib2 := saveAndLoad(t, lib)
			if lib2.View().NumSegments() != lib.View().NumSegments() {
				t.Fatalf("round-trip changed segmentation: %d vs %d",
					lib2.View().NumSegments(), lib.View().NumSegments())
			}
			for _, kind := range kinds {
				want, _ := lib.Scenes(kind)
				got, err := lib2.Scenes(kind)
				if err != nil || !reflect.DeepEqual(want, got) {
					t.Fatalf("Scenes(%q) diverge after round-trip (%v)", kind, err)
				}
			}
		})
	}
}

// TestCompactionPreservesAnswers locks the compaction invariant: merging
// every segment back into one yields byte-identical serialized rows to the
// monolithic build, and identical query answers.
func TestCompactionPreservesAnswers(t *testing.T) {
	vids := batchTestCorpus(t)
	jobs := batchJobs(vids)

	mono := buildSegmentedLib(t, jobs, len(jobs))
	lib := buildSegmentedLib(t, jobs, 2, 2, 2)
	kinds := segLibKinds(t, mono)

	before := map[string][]Scene{}
	for _, kind := range kinds {
		before[kind], _ = lib.Scenes(kind)
	}
	changed, err := lib.Compact(0)
	if err != nil {
		t.Fatal(err)
	}
	if !changed || lib.View().NumSegments() != 1 {
		t.Fatalf("full compaction: changed=%t segments=%d", changed, lib.View().NumSegments())
	}
	for _, kind := range kinds {
		after, err := lib.Scenes(kind)
		if err != nil || !reflect.DeepEqual(before[kind], after) {
			t.Fatalf("Scenes(%q) changed by compaction (%v)", kind, err)
		}
	}
	// The compacted single segment is byte-identical to the monolithic one.
	if !bytes.Equal(segmentBytes(t, newest(t, lib)), segmentBytes(t, newest(t, mono))) {
		t.Fatal("compacted segment is not byte-identical to the monolithic index")
	}
	// Size-capped compaction only merges runs within the target.
	lib2 := buildSegmentedLib(t, jobs, 2, 2, 1, 1)
	changed, err = lib2.Compact(2)
	if err != nil || !changed {
		t.Fatalf("capped compaction: %t, %v", changed, err)
	}
	if n := lib2.View().NumSegments(); n != 3 {
		t.Fatalf("capped compaction left %d segments, want 3 (2,2,1+1)", n)
	}
	for _, kind := range kinds {
		want, _ := mono.Scenes(kind)
		got, err := lib2.Scenes(kind)
		if err != nil || !reflect.DeepEqual(want, got) {
			t.Fatalf("Scenes(%q) diverge after capped compaction (%v)", kind, err)
		}
	}
}

// TestCommitConcurrentSearch is the -race lock for the incremental-commit
// path: result sets pinned before a commit stay byte-identical while the
// commit installs new segments, searches never block or fail, and the new
// videos become searchable without any reindexing of existing segments.
func TestCommitConcurrentSearch(t *testing.T) {
	vids := batchTestCorpus(t)
	jobs := batchJobs(vids)
	ctx := context.Background()

	lib := buildSegmentedLib(t, jobs[:3], 3)
	kinds := segLibKinds(t, lib)
	kind := kinds[0]
	site := v2Site(t)
	dl, err := NewDigitalLibrary(site, lib)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := dl.Search(ctx, Query{Scenes: kind})
	if err != nil {
		t.Fatal(err)
	}
	preSnap := dl.Snapshot()
	preVideos := lib.View().Stats().Videos

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rs, err := dl.Search(ctx, Query{Scenes: kind})
				if err != nil {
					t.Errorf("search during commit: %v", err)
					return
				}
				// Every answer is a consistent snapshot: either the old or
				// the extended corpus, never a torn mix.
				if rs.Snapshot == preSnap && !reflect.DeepEqual(rs.Items, golden.Items) {
					t.Error("pre-commit snapshot served post-commit items")
					return
				}
				if len(rs.Items) < len(golden.Items) {
					t.Errorf("answer shrank: %d < %d", len(rs.Items), len(golden.Items))
					return
				}
			}
		}()
	}
	if _, err := dl.CommitToken(ctx, "", jobs[3:], BatchOptions{Workers: 2}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	close(stop)
	wg.Wait()

	// The pre-commit result set still pages the pinned answer.
	for limit := 1; limit <= 3; limit++ {
		var walked []Item
		page, err := golden.Page("", limit)
		if err != nil {
			t.Fatal(err)
		}
		for {
			walked = append(walked, page.Items...)
			if page.Cursor == "" {
				break
			}
			page, err = page.Page(page.Cursor, limit)
			if err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(walked, golden.Items) {
			t.Fatalf("pinned walk (limit %d) diverged after commit", limit)
		}
	}

	// The commit grew the corpus without touching existing segments.
	if got := lib.View().Stats().Videos; got != preVideos+3 {
		t.Fatalf("videos after commit: %d, want %d", got, preVideos+3)
	}
	if dl.Snapshot() == preSnap {
		t.Fatal("commit did not install a new snapshot")
	}
	if n := lib.View().NumSegments(); n != 2 {
		t.Fatalf("segments after commit: %d, want 2", n)
	}
	post, err := dl.Search(ctx, Query{Scenes: kind})
	if err != nil {
		t.Fatal(err)
	}
	if len(post.Items) < len(golden.Items) {
		t.Fatalf("post-commit answer lost items: %d < %d", len(post.Items), len(golden.Items))
	}
	// DigitalLibrary-level compaction keeps the post-commit answer.
	if _, err := dl.Compact(0); err != nil {
		t.Fatal(err)
	}
	compacted, err := dl.Search(ctx, Query{Scenes: kind})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(post.Items, compacted.Items) {
		t.Fatal("compaction changed the answer")
	}
}

// TestFailedCommitInstallsNothing locks the failed-commit path: a commit
// whose jobs all fail appends no segment and must not install a new
// snapshot (which would purge server caches for an unchanged corpus).
func TestFailedCommitInstallsNothing(t *testing.T) {
	vids := batchTestCorpus(t)
	jobs := batchJobs(vids)
	lib := buildSegmentedLib(t, jobs[:2], 2)
	site := v2Site(t)
	dl, err := NewDigitalLibrary(site, lib)
	if err != nil {
		t.Fatal(err)
	}
	preSnap := dl.Snapshot()
	preSegs := lib.View().NumSegments()
	if _, err := dl.CommitToken(context.Background(), "",
		[]IngestJob{{Name: "ghost", Path: "/nonexistent/ghost.svf"}}, BatchOptions{}); err == nil {
		t.Fatal("commit of a missing file succeeded")
	}
	if dl.Snapshot() != preSnap {
		t.Fatal("failed commit installed a new snapshot")
	}
	if lib.View().NumSegments() != preSegs {
		t.Fatal("failed commit appended a segment")
	}
}

// TestSegmentedExplain checks per-segment OpStats surface for segmented
// video scatter legs.
func TestSegmentedExplain(t *testing.T) {
	vids := batchTestCorpus(t)
	jobs := batchJobs(vids)
	lib := buildSegmentedLib(t, jobs, 3, 3)
	kind := segLibKinds(t, lib)[0]
	site := v2Site(t)
	dl, err := NewDigitalLibrary(site, lib)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Source: fmt.Sprintf(`find Player scenes %q via wonFinals.video`, kind)}
	rs, err := dl.Search(context.Background(), q, WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Explain == nil {
		t.Fatal("no explain payload")
	}
	var videoOp *OpStat
	for i := range rs.Explain.Ops {
		if rs.Explain.Ops[i].Op == "video" {
			videoOp = &rs.Explain.Ops[i]
		}
	}
	if videoOp == nil {
		t.Fatal("no video operator in explain")
	}
	if len(videoOp.Segments) != 2 {
		t.Fatalf("video operator has %d segment stats, want 2", len(videoOp.Segments))
	}
	items := 0
	for i, seg := range videoOp.Segments {
		if seg.Op != fmt.Sprintf("video[%d]", i) {
			t.Fatalf("segment %d named %q", i, seg.Op)
		}
		if seg.Duration <= 0 {
			t.Fatalf("segment %d has zero duration", i)
		}
		items += seg.Items
	}
	if items != videoOp.Items {
		t.Fatalf("segment items sum %d != operator items %d", items, videoOp.Items)
	}
}
