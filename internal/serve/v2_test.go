package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dlse"
	"repro/internal/webspace"
)

// rebuildEngine builds a second engine over identical data to the fixture —
// the "reindex produced the same content" swap case, where determinism
// guarantees byte-identical answers across the swap.
func rebuildEngine(t testing.TB) *dlse.Engine {
	t.Helper()
	e, _ := fixture(t)
	return e
}

func getJSON(t *testing.T, base, path string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(base + path)
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

func TestV2SearchFormsAndPagination(t *testing.T) {
	e, _ := fixture(t)
	ts := httptest.NewServer(New(e, Options{}))
	defer ts.Close()

	// Combined query: full answer, then a cursor walk that must concatenate
	// to it exactly.
	q := url.QueryEscape(`find Player where exists wonFinals rank "australian open final"`)
	full := getJSON(t, ts.URL, "/v2/search?q="+q, http.StatusOK)
	total := int(full["total"].(float64))
	if total <= 2 {
		t.Fatalf("fixture too small: total = %d", total)
	}
	if full["cursor"] != nil {
		t.Fatalf("unpaginated answer has cursor %v", full["cursor"])
	}
	if int(full["count"].(float64)) != total {
		t.Fatalf("count %v != total %v", full["count"], full["total"])
	}

	var walked []any
	cursor := ""
	for pages := 0; ; pages++ {
		path := "/v2/search?limit=2&q=" + q
		if cursor != "" {
			path += "&cursor=" + url.QueryEscape(cursor)
		}
		page := getJSON(t, ts.URL, path, http.StatusOK)
		walked = append(walked, page["items"].([]any)...)
		if int(page["total"].(float64)) != total {
			t.Fatalf("page total %v != %d", page["total"], total)
		}
		c, _ := page["cursor"].(string)
		if c == "" {
			break
		}
		cursor = c
		if pages > total {
			t.Fatal("cursor walk did not terminate")
		}
	}
	if !reflect.DeepEqual(walked, full["items"].([]any)) {
		t.Fatal("HTTP cursor walk diverges from the unpaginated answer")
	}

	// Page 2 must be served from the cache (same entry as page 1).
	page1 := getJSON(t, ts.URL, "/v2/search?limit=2&q="+q, http.StatusOK)
	if page1["cached"] != true {
		t.Fatal("page 1 re-request not cached")
	}
	c1 := page1["cursor"].(string)
	page2 := getJSON(t, ts.URL, "/v2/search?limit=2&q="+q+"&cursor="+url.QueryEscape(c1), http.StatusOK)
	if page2["cached"] != true {
		t.Fatal("page N not served from the cached full result set")
	}

	// Keyword and scene forms.
	kw := getJSON(t, ts.URL, "/v2/search?kw=final&limit=3", http.StatusOK)
	if int(kw["count"].(float64)) == 0 {
		t.Fatal("keyword form returned nothing")
	}
	if _, ok := kw["items"].([]any)[0].(map[string]any)["page"]; !ok {
		t.Fatal("keyword item lacks page field")
	}
	sc := getJSON(t, ts.URL, "/v2/search?kind=net-play&limit=3", http.StatusOK)
	if int(sc["count"].(float64)) == 0 {
		t.Fatal("scene form returned nothing")
	}
	if _, ok := sc["items"].([]any)[0].(map[string]any)["scene"]; !ok {
		t.Fatal("scene item lacks scene field")
	}
}

func TestV2SearchExplain(t *testing.T) {
	e, _ := fixture(t)
	ts := httptest.NewServer(New(e, Options{}))
	defer ts.Close()

	q := url.QueryEscape(`find Player where sex = "female" and exists wonFinals` +
		` scenes "net-play" via wonFinals.video rank "australian open final"`)
	resp := getJSON(t, ts.URL, "/v2/search?explain=1&q="+q, http.StatusOK)
	ex, ok := resp["explain"].(map[string]any)
	if !ok {
		t.Fatalf("no explain payload: %v", resp)
	}
	ops := ex["ops"].([]any)
	wantOps := []string{"concept", "video", "text", "merge"}
	if len(ops) != len(wantOps) {
		t.Fatalf("explain ops = %d, want %d", len(ops), len(wantOps))
	}
	for i, raw := range ops {
		op := raw.(map[string]any)
		if op["op"] != wantOps[i] {
			t.Fatalf("op %d = %v, want %s", i, op["op"], wantOps[i])
		}
		if op["tookNs"].(float64) <= 0 {
			t.Fatalf("op %v has zero timing", op["op"])
		}
	}
	// The text operator exposes kernel stats.
	if ops[2].(map[string]any)["kernel"] == nil {
		t.Fatal("text op lacks kernel stats")
	}
	// Explain responses always reflect an execution, never the cache.
	again := getJSON(t, ts.URL, "/v2/search?explain=1&q="+q, http.StatusOK)
	if again["cached"] == true {
		t.Fatal("explain request served from cache")
	}
}

func TestV2ErrorStatuses(t *testing.T) {
	e, _ := fixture(t)
	ts := httptest.NewServer(New(e, Options{}))
	defer ts.Close()

	cases := []struct {
		path   string
		status int
		code   string
	}{
		{"/v2/search", http.StatusBadRequest, "parse"},                                              // no form
		{"/v2/search?q=%22unterminated", http.StatusBadRequest, "parse"},                            // lex error
		{"/v2/search?q=find+Ghost", http.StatusUnprocessableEntity, "unknown_concept"},              // schema error
		{"/v2/search?kw=the+of+and", http.StatusBadRequest, "empty_query"},                          // unrankable
		{"/v2/search?kw=final&cursor=!!!", http.StatusBadRequest, "bad_cursor"},                     // bad token
		{"/v2/search?q=find+Player&kw=final", http.StatusBadRequest, "parse"},                       // ambiguous
		{"/v2/search?kw=final&limit=-2", http.StatusBadRequest, "parse"},                            // bad limit
		{"/v2/search?q=find+Player+where+sex+%3D+%22f%22+nonsense", http.StatusBadRequest, "parse"}, // trailing
	}
	for _, tc := range cases {
		m := getJSON(t, ts.URL, tc.path, tc.status)
		if m["code"] != tc.code {
			t.Fatalf("%s: code = %v, want %s", tc.path, m["code"], tc.code)
		}
	}

	// Parse errors carry positions.
	m := getJSON(t, ts.URL, "/v2/search?q="+url.QueryEscape(`find Player where sex = "unterminated`), http.StatusBadRequest)
	if _, ok := m["pos"].(float64); !ok {
		t.Fatalf("parse error lacks pos: %v", m)
	}

	// Scene query against an engine without a video index.
	empty, err := dlse.NewSegmented(fixtureSite(t), nil, dlse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(empty, Options{}))
	defer ts2.Close()
	m = getJSON(t, ts2.URL, "/v2/search?kind=net-play", http.StatusNotFound)
	if m["code"] != "no_index" {
		t.Fatalf("no-index code = %v", m["code"])
	}
}

// fixtureSite regenerates the fixture's site (for engines built without a
// meta-index).
func fixtureSite(t testing.TB) *webspace.Site {
	t.Helper()
	site, err := webspace.GenerateAusOpen(webspace.SiteConfig{
		Players: 32, YearStart: 1999, YearEnd: 2001, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return site
}

// TestV2SwapStaleness is the swap counterpart of the cache-staleness
// contract: after Swap installs an engine with *different* content, the
// very next lookup must recompute — even though the new meta-index's write
// version may equal the old one's.
func TestV2SwapStaleness(t *testing.T) {
	e, _ := fixture(t)
	s := New(e, Options{})
	ctx := context.Background()

	before, _, err := s.Search(ctx, dlse.Query{Scenes: "net-play"}, "", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, cached, _ := s.Search(ctx, dlse.Query{Scenes: "net-play"}, "", 0, false); !cached {
		t.Fatal("warm v2 lookup missed")
	}

	// Build a replacement engine with one extra event; same write-version
	// shape as the original.
	site := fixtureSite(t)
	idx, err := core.NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	var first int64
	for _, vid := range site.W.All("Video") {
		v, _ := site.W.Get(vid)
		id := idx.AddVideo(core.Video{Name: v.StringAttr("name"), Width: 160, Height: 120, FPS: 25, Frames: 500})
		seg := idx.AddSegment(core.Segment{VideoID: id, Interval: core.Interval{Start: 0, End: 200}, Class: "tennis"})
		idx.AddEvent(core.Event{VideoID: id, SegmentID: seg, Kind: "net-play", Interval: core.Interval{Start: 120, End: 180}, Confidence: 0.9})
		if first == 0 {
			first = id
		}
	}
	// The one extra scene that distinguishes the snapshots.
	idx.AddEvent(core.Event{VideoID: first, Kind: "net-play", Interval: core.Interval{Start: 300, End: 360}, Confidence: 0.7})
	e2, err := dlse.NewSegmented(site, core.SingleSegment(idx.Freeze()), dlse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Swap(e2)

	after, cached, err := s.Search(ctx, dlse.Query{Scenes: "net-play"}, "", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("stale pre-swap entry served after swap")
	}
	if len(after.Items) != len(before.Items)+1 {
		t.Fatalf("post-swap scenes = %d, want %d", len(after.Items), len(before.Items)+1)
	}
	if after.Snapshot == before.Snapshot {
		t.Fatal("snapshot did not change across swap")
	}
}

// TestV2SearchAcrossLiveSwap hammers /v2/search from several goroutines
// while the engine is hot-swapped (to an identically-built snapshot)
// mid-traffic. Every response — including cursor walks spanning the swap —
// must match the sequential golden; with -race this locks in that swaps
// drop no in-flight query and tear no state.
func TestV2SearchAcrossLiveSwap(t *testing.T) {
	e, _ := fixture(t)
	srv := New(e, Options{CacheSize: 64, Workers: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	q := url.QueryEscape(`find Player where exists wonFinals rank "australian open final"`)
	golden := getJSON(t, ts.URL, "/v2/search?q="+q, http.StatusOK)
	goldenItems := golden["items"].([]any)

	const goroutines = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Swapper: repeatedly install identically-built engines.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			select {
			case <-stop:
				return
			default:
			}
			srv.Swap(rebuildEngine(t))
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				if g%2 == 0 {
					// Full-answer requests.
					resp, err := http.Get(ts.URL + "/v2/search?q=" + q)
					if err != nil {
						t.Errorf("get: %v", err)
						return
					}
					var m map[string]any
					err = json.NewDecoder(resp.Body).Decode(&m)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("status %d err %v", resp.StatusCode, err)
						return
					}
					if !reflect.DeepEqual(m["items"], golden["items"]) {
						t.Errorf("goroutine %d: answer diverged across swap", g)
						return
					}
				} else {
					// Cursor walks spanning swaps.
					var walked []any
					cursor := ""
					for {
						path := ts.URL + "/v2/search?limit=2&q=" + q
						if cursor != "" {
							path += "&cursor=" + url.QueryEscape(cursor)
						}
						resp, err := http.Get(path)
						if err != nil {
							t.Errorf("get: %v", err)
							return
						}
						var m map[string]any
						err = json.NewDecoder(resp.Body).Decode(&m)
						resp.Body.Close()
						if err != nil || resp.StatusCode != http.StatusOK {
							t.Errorf("walk status %d err %v", resp.StatusCode, err)
							return
						}
						walked = append(walked, m["items"].([]any)...)
						c, _ := m["cursor"].(string)
						if c == "" {
							break
						}
						cursor = c
					}
					if !reflect.DeepEqual(walked, goldenItems) {
						t.Errorf("goroutine %d: cursor walk diverged across swap", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
}

func TestV2Reload(t *testing.T) {
	e, _ := fixture(t)
	srv := New(e, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Unconfigured: 501.
	resp, err := http.Post(ts.URL+"/v2/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reload without reloader: status %d", resp.StatusCode)
	}

	// GET: 405.
	resp, err = http.Get(ts.URL + "/v2/reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload: status %d", resp.StatusCode)
	}

	// Configured: swaps and reports the new snapshot.
	oldSnap := srv.Engine().Snapshot()
	srv.SetReloader(func(ctx context.Context) (*dlse.Engine, error) {
		return rebuildEngine(t), nil
	})
	resp, err = http.Post(ts.URL+"/v2/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d (%v)", resp.StatusCode, m)
	}
	if int64(m["snapshot"].(float64)) == oldSnap {
		t.Fatal("reload did not install a new snapshot")
	}
	if srv.Engine().Snapshot() == oldSnap {
		t.Fatal("server still serving the old snapshot")
	}
}
