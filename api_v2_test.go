package repro

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fde"
)

// v2Site generates the site used by the v2 facade tests.
func v2Site(t testing.TB) *Site {
	t.Helper()
	site, err := GenerateSite(SiteConfig{Players: 32, YearStart: 1999, YearEnd: 2001, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	return site
}

// v2Library builds a Library whose meta-index holds synthetic net-play and
// rally events for every final's video — deterministically, so two calls
// produce byte-identical indexes (the "reindex yielded the same content"
// swap case). extraEvents appends that many additional events, producing a
// distinguishable snapshot.
func v2Library(t testing.TB, site *Site, extraEvents int) *Library {
	t.Helper()
	idx, err := core.NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	var first int64
	for _, vid := range site.W.All("Video") {
		v, _ := site.W.Get(vid)
		id := idx.AddVideo(Video{Name: v.StringAttr("name"), Width: 160, Height: 120, FPS: 25, Frames: 500})
		if first == 0 {
			first = id
		}
		seg := idx.AddSegment(Segment{VideoID: id, Interval: Interval{Start: 0, End: 200}, Class: "tennis"})
		idx.AddEvent(Event{VideoID: id, SegmentID: seg, Kind: "net-play", Interval: Interval{Start: 120, End: 180}, Confidence: 0.9})
		idx.AddEvent(Event{VideoID: id, SegmentID: seg, Kind: "rally", Interval: Interval{Start: 0, End: 100}, Confidence: 0.8})
	}
	if first == 0 {
		t.Fatal("site has no videos")
	}
	for i := 0; i < extraEvents; i++ {
		idx.AddEvent(Event{VideoID: first, Kind: "net-play",
			Interval: Interval{Start: 300 + 10*i, End: 305 + 10*i}, Confidence: 0.5})
	}
	lib, err := newLibrary(fde.DefaultTennisConfig(), core.SingleSegment(idx.Freeze()), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestV2PaginationDeterminismAcrossSwap is the acceptance lock for the
// cursor contract: walking all pages via cursors yields exactly the
// byte-identical result list of an unpaginated query — while other
// goroutines run concurrent Searches and the engine is hot-swapped (to an
// identically-rebuilt snapshot) mid-walk. The ranked lanes are walked
// through a caching server too: walkers of every page size share one cache
// entry per query, so they deepen the same ranked prefix concurrently while
// the swaps drop it under them. Run under -race by `make race`.
func TestV2PaginationDeterminismAcrossSwap(t *testing.T) {
	site := v2Site(t)
	dl, err := NewDigitalLibrary(site, v2Library(t, site, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := Query{Source: `find Player where sex = "female" and exists wonFinals` +
		` scenes "net-play" via wonFinals.video rank "australian open final"`}

	golden, err := dl.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if golden.Total < 3 {
		t.Fatalf("fixture too small: %d results", golden.Total)
	}

	var wg sync.WaitGroup

	// The swapper: rebuild an identical library and install it, repeatedly,
	// while walks are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			dl.Swap(v2Library(t, site, 0))
		}
	}()

	// Unpaginated searchers.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				rs, err := dl.Search(ctx, q)
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				if !reflect.DeepEqual(rs.Items, golden.Items) {
					t.Error("concurrent search diverged across swap")
					return
				}
			}
		}()
	}

	// Cursor walkers: every page size must concatenate to the golden list.
	for _, pageSize := range []int{1, 2, 3} {
		wg.Add(1)
		go func(pageSize int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				var walked []Item
				cursor := Cursor("")
				for {
					page, err := dl.Search(ctx, q, WithLimit(pageSize), WithCursor(cursor))
					if err != nil {
						t.Errorf("page (size %d): %v", pageSize, err)
						return
					}
					walked = append(walked, page.Items...)
					if page.Cursor == "" {
						break
					}
					cursor = page.Cursor
					if len(walked) > golden.Total {
						t.Errorf("walk (size %d) overran the answer", pageSize)
						return
					}
				}
				if !reflect.DeepEqual(walked, golden.Items) {
					t.Errorf("cursor walk (size %d) diverged from unpaginated answer", pageSize)
					return
				}
			}
		}(pageSize)
	}

	// Cursor walkers over the ranked lanes, through one server's cache.
	srv := NewServer(dl, ServerOptions{CacheSize: 16})
	for _, rq := range []Query{{Keyword: "australian open final"}, {Vector: "australian open final"}, {Hybrid: "australian open final"}} {
		want, err := dl.Search(ctx, rq)
		if err != nil {
			t.Fatal(err)
		}
		for _, pageSize := range []int{1, 2, 3} {
			wg.Add(1)
			go func(rq Query, pageSize int) {
				defer wg.Done()
				for r := 0; r < 3; r++ {
					var walked []Item
					cursor := Cursor("")
					for {
						page, _, err := srv.Search(ctx, rq, cursor, pageSize, false)
						if err != nil {
							t.Errorf("%+v page (size %d): %v", rq, pageSize, err)
							return
						}
						walked = append(walked, page.Items...)
						if cursor = page.Cursor; cursor == "" || len(walked) > want.Total {
							break
						}
					}
					if !reflect.DeepEqual(walked, want.Items) {
						t.Errorf("%+v: cached cursor walk (size %d) diverged from unpaginated answer", rq, pageSize)
						return
					}
				}
			}(rq, pageSize)
		}
	}
	wg.Wait()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var vars map[string]float64
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	if vars["cache_deepens"] == 0 {
		t.Error("no cached prefix was ever deepened: the walkers did not share entries")
	}
}

// TestReleasedServerIsNotSwapped checks Release: the released server's
// cache is empty and a commit swaps the library and the server still
// registered, not the released one.
func TestReleasedServerIsNotSwapped(t *testing.T) {
	jobs := batchJobs(batchTestCorpus(t))
	dl, err := NewDigitalLibrary(v2Site(t), buildSegmentedLib(t, jobs[:2], 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	kept, released := NewServer(dl, ServerOptions{}), NewServer(dl, ServerOptions{})
	for _, srv := range []*Server{kept, released} {
		for range 2 {
			if _, _, err := srv.Search(ctx, Query{Keyword: "australian open final"}, "", 10, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	dl.Release(released)
	if entries, _, _ := released.CacheStats(); entries != 0 {
		t.Fatalf("the released server holds %d cached answers", entries)
	}
	before := released.Engine().Snapshot()
	if _, err := dl.CommitToken(ctx, "", jobs[2:3], BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	if dl.Snapshot() == before {
		t.Fatal("the commit installed no snapshot")
	}
	if got := released.Engine().Snapshot(); got != before {
		t.Fatalf("the commit swapped the released server to snapshot %d", got)
	}
	if got := kept.Engine().Snapshot(); got != dl.Snapshot() {
		t.Fatalf("the registered server serves snapshot %d, the library %d", got, dl.Snapshot())
	}
	dl.Release(released) // a second release does nothing more
	if len(dl.servers) != 1 {
		t.Fatalf("the library holds %d servers, want the one still registered", len(dl.servers))
	}
}

// TestV2SwapVisibility checks that a swap to *different* content is
// observed: new scenes appear, the snapshot moves, and servers created via
// NewServer follow along.
func TestV2SwapVisibility(t *testing.T) {
	site := v2Site(t)
	dl, err := NewDigitalLibrary(site, v2Library(t, site, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	srv := NewServer(dl, ServerOptions{CacheSize: 16})

	before, err := dl.Search(ctx, Query{Scenes: "net-play"})
	if err != nil {
		t.Fatal(err)
	}
	snapBefore := dl.Snapshot()
	if _, cached, err := srv.Search(ctx, Query{Scenes: "net-play"}, "", 0, false); err != nil || cached {
		t.Fatalf("cold server search: cached=%t err=%v", cached, err)
	}

	dl.Swap(v2Library(t, site, 2))
	if dl.Snapshot() == snapBefore {
		t.Fatal("snapshot unchanged after swap")
	}
	after, err := dl.Search(ctx, Query{Scenes: "net-play"})
	if err != nil {
		t.Fatal(err)
	}
	if after.Total != before.Total+2 {
		t.Fatalf("post-swap scenes = %d, want %d", after.Total, before.Total+2)
	}
	// The registered server followed the swap: no stale cache serve, new
	// engine visible.
	got, cached, err := srv.Search(ctx, Query{Scenes: "net-play"}, "", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("server served pre-swap cache entry after swap")
	}
	if got.Total != after.Total || srv.Engine().Snapshot() != dl.Snapshot() {
		t.Fatal("server did not follow the swap")
	}

	// Typed errors surface through the facade.
	if _, err := dl.Search(ctx, Query{Source: "find Ghost"}); !errors.Is(err, ErrUnknownConcept) {
		t.Fatalf("unknown concept: %v", err)
	}
	var qe *QueryError
	_, err = dl.Search(ctx, Query{Source: `find Player where sex = "oops`})
	if !errors.Is(err, ErrParse) || !errors.As(err, &qe) {
		t.Fatalf("parse taxonomy: %v", err)
	}
}
