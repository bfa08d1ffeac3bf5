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
	"context"
	"reflect"
	"sync"
	"testing"
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
