package repro

// Race hammer for the frozen columnar scene view: concurrent scene reads —
// through the engine (Search) and through a pinned SegmentedIndex snapshot
// — against a live Commit and hot engine Swaps. Run under -race this
// exercises the view's lazy build from many goroutines at once (Swap
// installs engines over the same shared partitions the readers are
// scanning). The pinned snapshot must answer
// byte-identically throughout, and the frozen path must still match the
// row-store reference afterwards.

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
)

func TestFrozenViewHammerRace(t *testing.T) {
	vids := batchTestCorpus(t)
	jobs := batchJobs(vids)
	ctx := context.Background()

	lib := buildSegmentedLib(t, jobs[:3], 2, 1) // two segments to start
	kinds := segLibKinds(t, lib)
	site := v2Site(t)
	dl, err := NewDigitalLibrary(site, lib)
	if err != nil {
		t.Fatal(err)
	}

	// Pin a pre-commit snapshot of both layers: the raw segmented view and
	// an engine answer. Both must stay byte-identical while writers run.
	pinned := lib.View()
	goldenScenes := make(map[string][]Scene, len(kinds))
	goldenItems := make(map[string][]Item, len(kinds))
	for _, kind := range kinds {
		scenes, err := pinned.Scenes(kind)
		if err != nil {
			t.Fatal(err)
		}
		goldenScenes[kind] = scenes
		rs, err := dl.Search(ctx, Query{Scenes: kind})
		if err != nil {
			t.Fatal(err)
		}
		goldenItems[kind] = rs.Items
	}
	preSnap := dl.Snapshot()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				kind := kinds[(g+i)%len(kinds)]
				if (g+i)%2 == 0 {
					rs, err := dl.Search(ctx, Query{Scenes: kind})
					if err != nil {
						t.Errorf("search during commit/swap: %v", err)
						return
					}
					if rs.Snapshot == preSnap && !reflect.DeepEqual(rs.Items, goldenItems[kind]) {
						t.Error("pre-commit snapshot served changed items")
						return
					}
				} else {
					scenes, err := pinned.Scenes(kind)
					if err != nil {
						t.Errorf("pinned scenes during commit/swap: %v", err)
						return
					}
					if !reflect.DeepEqual(scenes, goldenScenes[kind]) {
						t.Errorf("pinned snapshot answer changed for %q", kind)
						return
					}
				}
			}
		}(g)
	}

	// Writers: one live commit growing the corpus, then hot swaps — each
	// swap installs an engine over the shared partitions.
	if _, err := dl.CommitToken(ctx, "", jobs[3:], BatchOptions{Workers: 2}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	for i := 0; i < 2; i++ {
		dl.Swap(lib)
	}
	close(stop)
	wg.Wait()

	// After the dust settles: the frozen path still matches the row-store
	// reference on the grown corpus, and the pinned snapshot kept its
	// answer.
	view := lib.View()
	parts, err := view.Parts()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range kinds {
		got, err := view.Scenes(kind)
		if err != nil {
			t.Fatal(err)
		}
		var want []Scene
		for _, p := range parts {
			ref, err := p.ScenesReference(kind)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ref...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("post-hammer Scenes(%q) diverges from reference", kind)
		}
		if len(got) < len(goldenScenes[kind]) {
			t.Fatalf("corpus shrank for %q: %d < %d", kind, len(got), len(goldenScenes[kind]))
		}
		pinnedNow, err := pinned.Scenes(kind)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pinnedNow, goldenScenes[kind]) {
			t.Fatalf("pinned snapshot drifted for %q", kind)
		}
	}
}

// TestIndexBatchLeavesViewsAlone: IndexBatch grows a private copy of the
// newest segment and installs it as a new view, so a View taken before the
// batch answers, counts and serializes exactly as it did — while a reader
// scans it during the batch (run under -race by `make race`).
func TestIndexBatchLeavesViewsAlone(t *testing.T) {
	jobs := batchJobs(batchTestCorpus(t))
	lib := buildSegmentedLib(t, jobs[:2], 2)
	kinds := []string{"rally", "net-play", "service"}

	v := lib.View()
	stats := v.Stats()
	scenes := make(map[string][]Scene, len(kinds))
	for _, kind := range kinds {
		got, err := v.Scenes(kind)
		if err != nil {
			t.Fatal(err)
		}
		scenes[kind] = got
	}
	saved := func() []byte {
		t.Helper()
		parts, err := v.Parts()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := core.WriteSegfile(&buf, parts, v.Metas(), v.Generation()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := saved()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			kind := kinds[i%len(kinds)]
			got, err := v.Scenes(kind)
			if err != nil {
				t.Errorf("scenes during the batch: %v", err)
				return
			}
			if !reflect.DeepEqual(got, scenes[kind]) {
				t.Errorf("%s scenes changed during the batch", kind)
				return
			}
		}
	}()
	_, err := lib.IndexBatch(context.Background(), jobs[2:4], BatchOptions{Workers: 2})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if got := v.Stats(); got != stats {
		t.Fatalf("view stats %+v after the batch, %+v before", got, stats)
	}
	for _, kind := range kinds {
		got, err := v.Scenes(kind)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, scenes[kind]) {
			t.Fatalf("%s scenes of the view changed after the batch", kind)
		}
	}
	if !bytes.Equal(saved(), before) {
		t.Fatal("the view serializes differently after the batch")
	}
	if got := lib.View().Stats().Videos; got != stats.Videos+2 {
		t.Fatalf("library holds %d videos after the batch, want %d", got, stats.Videos+2)
	}
}
