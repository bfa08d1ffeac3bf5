package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dlse"
	"repro/internal/webspace"
)

// fixture builds a small engine: synthetic site plus a meta-index with
// net-play and rally events on every final's video, and returns the engine's
// one partition.
func fixture(t testing.TB) (*dlse.Engine, *core.Part) {
	t.Helper()
	site, err := webspace.GenerateAusOpen(webspace.SiteConfig{
		Players: 32, YearStart: 1999, YearEnd: 2001, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	for _, vid := range site.W.All("Video") {
		v, _ := site.W.Get(vid)
		id := idx.AddVideo(core.Video{Name: v.StringAttr("name"), Width: 160, Height: 120, FPS: 25, Frames: 500})
		seg := idx.AddSegment(core.Segment{VideoID: id, Interval: core.Interval{Start: 0, End: 200}, Class: "tennis"})
		idx.AddEvent(core.Event{VideoID: id, SegmentID: seg, Kind: "net-play", Interval: core.Interval{Start: 120, End: 180}, Confidence: 0.9})
		idx.AddEvent(core.Event{VideoID: id, SegmentID: seg, Kind: "rally", Interval: core.Interval{Start: 0, End: 100}, Confidence: 0.8})
	}
	part := idx.Freeze()
	e, err := dlse.NewSegmented(site, core.SingleSegment(part), dlse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e, part
}

const combinedQuery = `find Player where sex = "female" and handedness = "left"` +
	` and exists wonFinals scenes "net-play" via wonFinals.video rank "champion"`

// search answers q in full (no cursor, no limit, no explain).
func search(s *Server, q dlse.Query) (*dlse.ResultSet, bool, error) {
	return s.Search(context.Background(), q, "", 0, false)
}

func TestQueryColdThenCached(t *testing.T) {
	e, _ := fixture(t)
	s := New(e, Options{})

	cold, cached, err := search(s, dlse.Query{Source: combinedQuery})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first query reported cached")
	}
	warm, cached, err := search(s, dlse.Query{Source: combinedQuery})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("second query not served from cache")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("cached result differs from cold result")
	}
	if entries, hits, misses := s.CacheStats(); entries != 1 || hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d entries, %d hits, %d misses", entries, hits, misses)
	}
}

func TestInvalidateCache(t *testing.T) {
	e, _ := fixture(t)
	s := New(e, Options{})
	if _, _, err := search(s, dlse.Query{Source: combinedQuery}); err != nil {
		t.Fatal(err)
	}
	s.InvalidateCache()
	if entries, _, _ := s.CacheStats(); entries != 0 {
		t.Fatalf("cache has %d entries after purge", entries)
	}
	if _, cached, _ := search(s, dlse.Query{Source: combinedQuery}); cached {
		t.Fatal("query served from purged cache")
	}
}

// TestOneOffQueriesHoldOnlyProbation is the cache's admission at the
// default capacity (1,024 entries over 8 shards): a combined query asked
// twice is protected, and 2,000 keyword queries asked once each leave only
// the probation total, 16, behind it.
func TestOneOffQueriesHoldOnlyProbation(t *testing.T) {
	e, _ := fixture(t)
	s := New(e, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	for range 2 {
		if _, _, err := search(s, dlse.Query{Source: combinedQuery}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 2000 {
		if _, _, err := s.Search(context.Background(), dlse.Query{Keyword: fmt.Sprintf("champion q%d", i)}, "", 10, false); err != nil {
			t.Fatal(err)
		}
	}
	const probation = 8 * (1024 / 8 / 64)
	if m := metricsJSON(t, ts.URL); m["cache_entries"] != probation+1 {
		t.Fatalf("dl_cache_entries = %v, want the probation total %d plus the combined query", m["cache_entries"], probation)
	}
	if _, cached, err := search(s, dlse.Query{Source: combinedQuery}); err != nil || !cached {
		t.Fatalf("the combined query after 2,000 one-offs: cached=%t err=%v", cached, err)
	}
}

func TestCacheDisabled(t *testing.T) {
	e, _ := fixture(t)
	s := New(e, Options{CacheSize: -1})
	for i := 0; i < 2; i++ {
		if _, cached, err := search(s, dlse.Query{Source: combinedQuery}); err != nil || cached {
			t.Fatalf("iteration %d: cached=%t err=%v", i, cached, err)
		}
	}
}

// TestConcurrentMixedTrafficMatchesSequential hammers one shared Server
// with goroutines running mixed query/keyword/scene traffic and compares
// every answer against the sequential golden. With -race this locks in the
// serving layer's concurrency safety, cache included.
func TestConcurrentMixedTrafficMatchesSequential(t *testing.T) {
	e, _ := fixture(t)
	s := New(e, Options{CacheSize: 64, Workers: 4})
	queries := []string{
		combinedQuery,
		`find Player where handedness = "left"`,
		`find Final scenes "rally" via video`,
		`find Player where exists wonFinals rank "final champion" limit 4`,
	}
	goldenQ := make([][]dlse.Item, len(queries))
	for i, q := range queries {
		res, _, err := search(s, dlse.Query{Source: q})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		goldenQ[i] = res.Items
	}
	keyword := func() (*dlse.ResultSet, bool, error) {
		return s.Search(context.Background(), dlse.Query{Keyword: "champion final"}, "", 10, false)
	}
	goldenKW, _, err := keyword()
	if err != nil {
		t.Fatal(err)
	}
	goldenSc, _, err := search(s, dlse.Query{Scenes: "net-play"})
	if err != nil {
		t.Fatal(err)
	}

	const (
		goroutines = 8
		rounds     = 25
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch (g + r) % 3 {
				case 0:
					i := r % len(queries)
					res, _, err := search(s, dlse.Query{Source: queries[i]})
					if err != nil {
						t.Errorf("query: %v", err)
						return
					}
					if !reflect.DeepEqual(res.Items, goldenQ[i]) {
						t.Errorf("goroutine %d: query %d diverged from sequential", g, i)
						return
					}
				case 1:
					hits, _, err := keyword()
					if err != nil {
						t.Errorf("keyword: %v", err)
						return
					}
					if !reflect.DeepEqual(hits.Items, goldenKW.Items) {
						t.Errorf("goroutine %d: keyword diverged", g)
						return
					}
				default:
					scenes, _, err := search(s, dlse.Query{Scenes: "net-play"})
					if err != nil {
						t.Errorf("scenes: %v", err)
						return
					}
					if !reflect.DeepEqual(scenes.Items, goldenSc.Items) {
						t.Errorf("goroutine %d: scenes diverged", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// ---------------------------------------------------------------- HTTP

func TestHTTPEndpoints(t *testing.T) {
	e, _ := fixture(t)
	ts := httptest.NewServer(New(e, Options{}))
	defer ts.Close()

	get := func(t *testing.T, path string, wantStatus int) map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
		return m
	}

	h := get(t, "/healthz", http.StatusOK)
	if h["status"] != "ok" {
		t.Fatalf("healthz status = %v", h["status"])
	}
	if h["docs"].(float64) <= 0 {
		t.Fatalf("healthz docs = %v", h["docs"])
	}

	// The pre-/v2 endpoints are gone: the mux answers them like any other
	// unknown path.
	for _, path := range []string{"/query?q=find+Player", "/keyword?q=final", "/scenes?kind=net-play"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}
