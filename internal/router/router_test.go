package router

// Parity contract of the distributed tier: a dlrouter fronting N dlserve
// nodes must answer /v2/search byte-identically to one monolithic dlserve
// over the same library — across node counts, replica factors, query
// forms, cursor pagination, and a live commit landing mid-walk.

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dlse"
	"repro/internal/serve"
	"repro/internal/transport"
	"repro/internal/webspace"
)

// buildEngine assembles the test engine: 3 text segments over the site's
// pages, 2 video segments (the second a simulated earlier commit).
func buildEngine(t testing.TB) *dlse.Engine { return buildEngineOf(t, 32) }

// buildEngineOf is buildEngine over a site of the given number of players.
// The default 32 make 44 pages, fewer than the 2d+60 candidates a hybrid
// page fuses from, so its lanes come back whole; tests of the rank-lookup
// round take more.
func buildEngineOf(t testing.TB, players int) *dlse.Engine {
	t.Helper()
	site, err := webspace.GenerateAusOpen(webspace.SiteConfig{
		Players: players, YearStart: 1999, YearEnd: 2001, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	seg1, err := core.NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	for _, vid := range site.W.All("Video") {
		v, _ := site.W.Get(vid)
		id := seg1.AddVideo(core.Video{Name: v.StringAttr("name"), Width: 160, Height: 120, FPS: 25, Frames: 500})
		sid := seg1.AddSegment(core.Segment{VideoID: id, Interval: core.Interval{Start: 0, End: 200}, Class: "tennis"})
		seg1.AddEvent(core.Event{VideoID: id, SegmentID: sid, Kind: "net-play", Interval: core.Interval{Start: 120, End: 180}, Confidence: 0.9})
		seg1.AddEvent(core.Event{VideoID: id, SegmentID: sid, Kind: "rally", Interval: core.Interval{Start: 0, End: 100}, Confidence: 0.8})
	}
	base := seg1.IDState()
	seg2 := core.NewMetaIndexAt(base)
	id := seg2.AddVideo(core.Video{Name: "earlier-commit", FPS: 25, Frames: 300})
	seg2.AddEvent(core.Event{VideoID: id, Kind: "net-play", Interval: core.Interval{Start: 10, End: 60}, Confidence: 0.7})
	view, err := core.NewSegmentedIndex(
		[]*core.Part{seg1.Freeze(), seg2.Freeze()},
		[]core.SegmentMeta{{ID: 1}, {ID: 2, Base: base}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := dlse.NewSegmented(site, view, dlse.Options{TextSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// cluster is N dlserve nodes over one engine (replicated storage: every
// node holds the full library) plus a monolithic reference node.
type cluster struct {
	engine  *dlse.Engine
	servers []*serve.Server // node serving layers, for swaps
	urls    []string
	mono    string        // monolithic reference node URL
	monoSrv *serve.Server // its serving layer, swapped alongside the nodes
}

func newCluster(t *testing.T, nodes int) *cluster {
	t.Helper()
	e := buildEngine(t)
	c := &cluster{engine: e}
	for i := 0; i < nodes; i++ {
		s := serve.New(e, serve.Options{})
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		c.servers = append(c.servers, s)
		c.urls = append(c.urls, ts.URL)
	}
	c.monoSrv = serve.New(e, serve.Options{})
	mono := httptest.NewServer(c.monoSrv)
	t.Cleanup(mono.Close)
	c.mono = mono.URL
	return c
}

func (c *cluster) router(t *testing.T, opts Options) string {
	t.Helper()
	r, err := New(c.urls, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)
	return ts.URL
}

// page is the comparable subset of a /v2/search response: cursor tokens,
// timings, snapshots, and cache flags are process-specific; items, count,
// and total are the contract.
type page struct {
	Items []any
	Count int
	Total int
}

func getSearch(t *testing.T, base, query string) (page, string, int) {
	t.Helper()
	resp, err := http.Get(base + "/v2/search?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", query, err)
	}
	if resp.StatusCode != http.StatusOK {
		return page{}, "", resp.StatusCode
	}
	p := page{Count: int(m["count"].(float64)), Total: int(m["total"].(float64))}
	if items, ok := m["items"].([]any); ok {
		p.Items = items
	}
	cursor, _ := m["cursor"].(string)
	return p, cursor, resp.StatusCode
}

// walk pages through a query until the cursor runs dry, returning the
// per-page snapshots and the concatenated items.
func walk(t *testing.T, base, query string, limit int) ([]page, []any) {
	t.Helper()
	var pages []page
	var items []any
	cursor := ""
	for i := 0; ; i++ {
		q := query
		if limit > 0 {
			q += "&limit=" + url.QueryEscape(jsonInt(limit))
		}
		if cursor != "" {
			q += "&cursor=" + url.QueryEscape(cursor)
		}
		p, next, status := getSearch(t, base, q)
		if status != http.StatusOK {
			t.Fatalf("walk %s page %d: status %d", query, i, status)
		}
		pages = append(pages, p)
		items = append(items, p.Items...)
		if next == "" {
			return pages, items
		}
		cursor = next
		if i > p.Total+2 {
			t.Fatalf("walk %s did not terminate", query)
		}
	}
}

func jsonInt(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestClusterParity locks byte-identical answers across 1-, 2-, and
// 3-node placements with replica factors 1 and 2, for the scattered query
// forms and the proxied combined form, paginated and unpaginated.
func TestClusterParity(t *testing.T) {
	queries := []string{
		"kw=" + url.QueryEscape("australian open final"),
		"kw=champion",
		"kw=champion&kind=vector",
		"kw=" + url.QueryEscape("australian open final") + "&kind=hybrid",
		"kind=net-play",
		"kind=rally",
		"q=" + url.QueryEscape(`find Player where exists wonFinals rank "australian open final"`),
	}
	for _, nodes := range []int{1, 2, 3} {
		c := newCluster(t, nodes)
		for _, replicas := range []int{1, 2} {
			router := c.router(t, Options{Replicas: replicas})
			for _, q := range queries {
				// Unpaginated answers match.
				mono, _, _ := getSearch(t, c.mono, q)
				dist, _, _ := getSearch(t, router, q)
				if !reflect.DeepEqual(mono, dist) {
					t.Fatalf("nodes=%d replicas=%d %s: full answer diverges\nmono %+v\ndist %+v",
						nodes, replicas, q, mono, dist)
				}
				// Paginated walks match page for page.
				monoPages, monoItems := walk(t, c.mono, q, 2)
				distPages, distItems := walk(t, router, q, 2)
				if !reflect.DeepEqual(monoPages, distPages) {
					t.Fatalf("nodes=%d replicas=%d %s: paginated walk diverges", nodes, replicas, q)
				}
				if !reflect.DeepEqual(monoItems, distItems) {
					t.Fatalf("nodes=%d replicas=%d %s: walked items diverge", nodes, replicas, q)
				}
			}
		}
	}
}

// TestClusterErrorParity locks that the router's error surface matches a
// node's: same statuses, same machine-readable codes.
func TestClusterErrorParity(t *testing.T) {
	c := newCluster(t, 2)
	router := c.router(t, Options{})
	cases := []struct {
		query  string
		status int
	}{
		{"", http.StatusBadRequest},                       // no form (proxied)
		{"kw=the+of+and", http.StatusBadRequest},          // unrankable (scattered)
		{"kw=final&cursor=!!!", http.StatusBadRequest},    // bad cursor (router-side)
		{"kw=final&limit=-2", http.StatusBadRequest},      // strict limit (router-side)
		{"q=find+Ghost", http.StatusUnprocessableEntity},  // schema error (proxied)
		{"kind=net-play&kw=final", http.StatusBadRequest}, // ambiguous (proxied)
	}
	for _, tc := range cases {
		for _, base := range []string{c.mono, router} {
			resp, err := http.Get(base + "/v2/search?" + tc.query)
			if err != nil {
				t.Fatal(err)
			}
			var m map[string]any
			_ = json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("%s @ %s: status %d, want %d", tc.query, base, resp.StatusCode, tc.status)
			}
			if m["code"] == nil || m["code"] == "" {
				t.Fatalf("%s @ %s: missing error code: %v", tc.query, base, m)
			}
		}
	}
}

// commitView extends the cluster's library with one more segment and
// installs it on every node — the distributed image of a commit (all nodes
// ingest the same file set).
func (c *cluster) commitView(t *testing.T) {
	t.Helper()
	next := commitEngine(t, c.engine)
	for _, s := range c.servers {
		s.Swap(next)
	}
	c.monoSrv.Swap(next)
}

// commitEngine is e after a commit of one more video segment (generation
// plus one).
func commitEngine(t *testing.T, e *dlse.Engine) *dlse.Engine {
	t.Helper()
	vi := e.VideoIndex()
	parts, err := vi.Parts()
	if err != nil {
		t.Fatal(err)
	}
	metas := vi.Metas()
	base := parts[len(parts)-1].IDState()
	seg := core.NewMetaIndexAt(base)
	id := seg.AddVideo(core.Video{Name: "live-commit", FPS: 25, Frames: 200})
	seg.AddEvent(core.Event{VideoID: id, Kind: "net-play", Interval: core.Interval{Start: 5, End: 45}, Confidence: 0.6})
	view, err := core.NewSegmentedIndex(append(parts, seg.Freeze()),
		append(metas, core.SegmentMeta{ID: metas[len(metas)-1].ID + 1, Base: base}),
		vi.Generation()+1)
	if err != nil {
		t.Fatal(err)
	}
	return e.WithVideo(view)
}

// TestClusterLiveCommit walks a paginated scene query through the router
// while a commit lands on every node mid-walk (run under -race). Commits
// append, so the pre-commit answer is a prefix of the post-commit answer:
// every walked item must equal the post-commit answer at its offset, and
// concurrent full-answer readers must see one generation per response.
func TestClusterLiveCommit(t *testing.T) {
	c := newCluster(t, 2)
	router := c.router(t, Options{Replicas: 2})
	const q = "kind=net-play"

	_, preItems := walk(t, c.mono, q, 0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers hammer the router during the commit window.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p, _, status := getSearch(t, router, q)
				if status != http.StatusOK {
					t.Errorf("concurrent read: status %d", status)
					return
				}
				if p.Total != len(preItems) && p.Total != len(preItems)+1 {
					t.Errorf("concurrent read: total %d, want %d or %d",
						p.Total, len(preItems), len(preItems)+1)
					return
				}
				if p.Total != len(p.Items) {
					t.Errorf("concurrent read: mixed-generation answer (%d items, total %d)",
						len(p.Items), p.Total)
					return
				}
			}
		}()
	}

	// Walk pages; commit after the second page.
	var walked []any
	cursor := ""
	for i := 0; ; i++ {
		query := q + "&limit=2"
		if cursor != "" {
			query += "&cursor=" + url.QueryEscape(cursor)
		}
		p, next, status := getSearch(t, router, query)
		if status != http.StatusOK {
			t.Fatalf("walk page %d: status %d", i, status)
		}
		walked = append(walked, p.Items...)
		if i == 1 {
			c.commitView(t)
		}
		if next == "" {
			break
		}
		cursor = next
	}
	close(stop)
	wg.Wait()

	_, postItems := walk(t, c.mono, q, 0)
	if len(postItems) != len(preItems)+1 {
		t.Fatalf("commit did not extend the answer: %d -> %d", len(preItems), len(postItems))
	}
	if len(walked) < len(preItems) {
		t.Fatalf("walk lost items: %d < %d", len(walked), len(preItems))
	}
	for i, item := range walked {
		if !reflect.DeepEqual(item, postItems[i]) {
			t.Fatalf("walked item %d diverges from the committed answer", i)
		}
	}
}

// TestClusterLiveCommitRanked walks paginated vector and hybrid queries
// through the router while a commit lands on every node mid-walk (run
// under -race). Both ranked lanes index the pages alone, so a commit moves
// no ranked answer: the walk, every concurrent full-answer read and the
// single node's answer after the commit all equal its answer before.
func TestClusterLiveCommitRanked(t *testing.T) {
	for _, q := range []string{
		"kw=champion&kind=vector",
		"kw=champion&kind=hybrid",
	} {
		c := newCluster(t, 2)
		router := c.router(t, Options{Replicas: 2})

		_, preItems := walk(t, c.mono, q, 0)

		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					p, _, status := getSearch(t, router, q)
					if status != http.StatusOK {
						t.Errorf("concurrent read: status %d", status)
						return
					}
					if p.Total != len(p.Items) || !reflect.DeepEqual(p.Items, preItems) {
						t.Errorf("concurrent read: %d items of %d, not the pre-commit answer",
							len(p.Items), p.Total)
						return
					}
				}
			}()
		}

		var walked []any
		cursor := ""
		committed := false
		for i := 0; ; i++ {
			query := q + "&limit=3"
			if cursor != "" {
				query += "&cursor=" + url.QueryEscape(cursor)
			}
			p, next, status := getSearch(t, router, query)
			if status != http.StatusOK {
				t.Fatalf("%s walk page %d: status %d", q, i, status)
			}
			walked = append(walked, p.Items...)
			if i == 1 {
				c.commitView(t)
				committed = true
			}
			if next == "" {
				break
			}
			cursor = next
			if i > len(preItems) {
				t.Fatalf("%s: walk did not terminate", q)
			}
		}
		close(stop)
		wg.Wait()
		if !committed {
			t.Fatalf("%s: walk finished before the commit landed", q)
		}

		if _, postItems := walk(t, c.mono, q, 0); !reflect.DeepEqual(postItems, preItems) {
			t.Fatalf("%s: the commit moved the node's answer", q)
		}
		if !reflect.DeepEqual(walked, preItems) {
			t.Fatalf("%s: the walk through the router diverges from the node's answer", q)
		}
	}
}

// TestRouterLaneMetrics: the router exposes the same per-lane query
// counters as a node (dl_queries_{lexical,vector,hybrid}_total), moved by
// the scattered lane of each /v2/search.
func TestRouterLaneMetrics(t *testing.T) {
	c := newCluster(t, 2)
	router := c.router(t, Options{})
	getSearch(t, router, "kw=champion")
	getSearch(t, router, "kw=champion&kind=vector")
	getSearch(t, router, "kw=champion&kind=hybrid")
	getSearch(t, router, "kw=champion&kind=hybrid")

	resp, err := http.Get(router + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"dl_queries_lexical_total 1",
		"dl_queries_vector_total 1",
		"dl_queries_hybrid_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("router /metrics missing %q:\n%s", want, body)
		}
	}
}

// TestRouterSearchDirect covers the Go-level Search API: parity with the
// engine and cursor binding.
func TestRouterSearchDirect(t *testing.T) {
	c := newCluster(t, 2)
	r, err := New(c.urls, Options{Replicas: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	rs, partial, err := r.Search(ctx, dlse.Query{Scenes: "net-play"}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if partial {
		t.Fatal("healthy cluster served a partial answer")
	}
	mono, err := c.engine.Search(ctx, dlse.Query{Scenes: "net-play"})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Total != mono.Total || len(rs.Items) != len(mono.Items) {
		t.Fatalf("distributed %d/%d vs mono %d/%d", len(rs.Items), rs.Total, len(mono.Items), mono.Total)
	}
	for i := range rs.Items {
		if !reflect.DeepEqual(*rs.Items[i].Scene, *mono.Items[i].Scene) {
			t.Fatalf("item %d diverges", i)
		}
	}

	// A cursor minted for one query fails on another — the engine's own
	// binding, reused.
	first, _, err := r.Search(ctx, dlse.Query{Scenes: "net-play"}, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cursor == "" {
		t.Fatal("no cursor on paginated answer")
	}
	if _, _, err := r.Search(ctx, dlse.Query{Scenes: "rally"}, first.Cursor, 2); err == nil {
		t.Fatal("cross-query cursor accepted")
	}

	// Unsupported distributed form is rejected at the API level.
	if _, _, err := r.Search(ctx, dlse.Query{Source: "find Player"}, "", 0); err == nil {
		t.Fatal("combined form accepted by distributed Search")
	}

	_ = transport.ErrUnavailable // keep import for doc symmetry
}

// recordingSource is a Local source under its own address that keeps every
// partial query it answered with the answer.
type recordingSource struct {
	*transport.Local
	addr string
	mu   sync.Mutex
	legs []recordedLeg
}

type recordedLeg struct {
	q transport.Query
	p *transport.Partial
}

func (s *recordingSource) Addr() string { return s.addr }

func (s *recordingSource) Partial(ctx context.Context, q transport.Query, sel transport.Sel, gen int64) (*transport.Partial, error) {
	p, err := s.Local.Partial(ctx, q, sel, gen)
	s.mu.Lock()
	s.legs = append(s.legs, recordedLeg{q, p})
	s.mu.Unlock()
	return p, err
}

// TestRouterBoundedLegs locks the depth the router asks its legs for:
// keyword and vector legs carry K = offset+limit and answer with at most K
// hits plus the matched count the total is summed from; hybrid's round-1
// legs carry K = min(2(offset+limit)+60, lane) and, for each lane whose list
// that cuts short, one rank-lookup leg carries the other lane's candidates;
// no leg of a limited page asks for K = 0 (a full ranking); pages 1-3 by
// cursor equal the single node's, total included; and a forged cursor
// (offset 2^40) with the largest limit asks for no more than the lane's
// documents and gets an empty last page.
func TestRouterBoundedLegs(t *testing.T) {
	e := buildEngineOf(t, 200)
	local := transport.NewLocal(func() *dlse.Engine { return e })
	nodes := []*recordingSource{{Local: local, addr: "node-0"}, {Local: local, addr: "node-1"}}
	r, err := NewWithSources([]transport.SegmentSource{nodes[0], nodes[1]}, Options{Replicas: 1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	drain := func() (legs []recordedLeg) {
		for _, n := range nodes {
			n.mu.Lock()
			legs = append(legs, n.legs...)
			n.legs = nil
			n.mu.Unlock()
		}
		return legs
	}
	const limit = 3
	docs, vecDocs := e.TextIndex().Docs(), e.VecIndex().Docs()
	laneOf := func(q transport.Query) (string, int) { // the lane a leg reads and its documents
		if q.Vector != "" {
			return "vec", vecDocs
		}
		return "kw", docs
	}
	for _, tc := range []struct {
		q      dlse.Query
		hybrid bool
	}{
		{dlse.Query{Keyword: "australian open final player"}, false},
		{dlse.Query{Vector: "australian open final player"}, false},
		{dlse.Query{Hybrid: "australian open final player"}, true},
	} {
		cursor, monoCursor := dlse.Cursor(""), dlse.Cursor("")
		for pageNo := 1; pageNo <= 3; pageNo++ {
			got, partial, err := r.Search(ctx, tc.q, cursor, limit)
			if err != nil || partial {
				t.Fatalf("%+v page %d: err %v partial %t", tc.q, pageNo, err, partial)
			}
			want, err := e.Search(ctx, tc.q, dlse.WithLimit(limit), dlse.WithCursor(monoCursor))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Items, want.Items) || got.Total != want.Total || (got.Cursor == "") != (want.Cursor == "") {
				t.Fatalf("%+v page %d: router answer diverges from the single node's", tc.q, pageNo)
			}
			depth := pageNo * limit
			matched, hits, ranks := map[string]int{}, map[string]int{}, map[string]int{}
			var candK int      // the depth hybrid's round-1 legs were asked for
			var rankDocs []int // documents each rank leg carried
			for _, leg := range drain() {
				lane, laneDocs := laneOf(leg.q)
				if leg.q.Ranks != nil {
					ranks[lane]++
					rankDocs = append(rankDocs, len(leg.q.Ranks))
					continue
				}
				wantK := depth
				if tc.hybrid {
					wantK = min(2*depth+dlse.RRFK, laneDocs)
					candK = max(candK, wantK)
				}
				if leg.q.K != wantK || len(leg.p.Hits) > wantK {
					t.Fatalf("%+v page %d: leg K=%d with %d hits, want K=%d", tc.q, pageNo, leg.q.K, len(leg.p.Hits), wantK)
				}
				matched[lane] += leg.p.Matched
				hits[lane] += len(leg.p.Hits)
			}
			if tc.hybrid {
				// A rank leg places the other lane's candidates, for each lane
				// whose round-1 list stops short of everything it matched.
				for lane, n := range ranks {
					if n != 1 || hits[lane] == matched[lane] {
						t.Fatalf("%+v page %d: %d %s rank legs, %d of %d hits listed", tc.q, pageNo, n, lane, hits[lane], matched[lane])
					}
				}
				if len(ranks) != 2 {
					t.Fatalf("%+v page %d: rank legs %v, want one per lane", tc.q, pageNo, ranks)
				}
				matched = map[string]int{"": matched["vec"]} // the union is what the vector lane scanned
			}
			for _, n := range rankDocs {
				if n > candK {
					t.Fatalf("%+v page %d: a rank leg carries %d documents, the lanes were cut at %d", tc.q, pageNo, n, candK)
				}
			}
			for lane, n := range matched {
				if n != want.Total {
					t.Fatalf("%+v page %d: %s legs matched %d, total %d", tc.q, pageNo, lane, n, want.Total)
				}
			}
			cursor, monoCursor = got.Cursor, want.Cursor
		}
		first, _, err := r.Search(ctx, tc.q, "", limit)
		if err != nil {
			t.Fatal(err)
		}
		drain()
		last, _, err := r.Search(ctx, tc.q, forgeCursor(t, tc.q, 1<<40), 999_999_999)
		if err != nil || len(last.Items) != 0 || last.Cursor != "" || last.Total != first.Total {
			t.Fatalf("%+v forged cursor: err %v, %d items, total %d", tc.q, err, len(last.Items), last.Total)
		}
		for _, leg := range drain() {
			// Clamped before it is doubled: both hybrid lanes come back whole,
			// so no rank leg is needed either.
			if _, laneDocs := laneOf(leg.q); leg.q.K != laneDocs || leg.q.Ranks != nil {
				t.Fatalf("%+v forged cursor: leg K=%d (rank lookup %t), want the lane's %d documents",
					tc.q, leg.q.K, leg.q.Ranks != nil, laneDocs)
			}
		}
	}
}

// forgeCursor mints a cursor for q at an arbitrary offset, the way a client
// that has reverse-engineered the token would: base64 of uvarint(FNV-1a of
// the canonical key), uvarint(offset), varint(snapshot).
func forgeCursor(t *testing.T, q dlse.Query, offset uint64) dlse.Cursor {
	t.Helper()
	key, ok := dlse.CanonicalKey(q)
	if !ok {
		t.Fatalf("no canonical key for %+v", q)
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	buf := binary.AppendUvarint(nil, h.Sum64())
	buf = binary.AppendUvarint(buf, offset)
	buf = binary.AppendVarint(buf, 0)
	return dlse.Cursor(base64.RawURLEncoding.EncodeToString(buf))
}

// TestObservabilityEndpointsGetOnly: /healthz, /metrics and /debug/vars
// refuse anything but GET the same way on a node and on a router, in the v2
// {error, code:"method"} envelope.
func TestObservabilityEndpointsGetOnly(t *testing.T) {
	c := newCluster(t, 2)
	for _, base := range []string{c.urls[0], c.router(t, Options{})} {
		for _, path := range []string{"/healthz", "/metrics", "/debug/vars"} {
			resp, err := http.Post(base+path, "text/plain", nil)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodGet ||
				!strings.Contains(string(body), "method POST not allowed") || !strings.Contains(string(body), `"code":"method"`) {
				t.Errorf("POST %s%s: %d Allow=%q %s", base, path, resp.StatusCode, resp.Header.Get("Allow"), body)
			}
			if resp, err = http.Get(base + path); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s%s: %v %v", base, path, resp, err)
			}
			resp.Body.Close()
		}
	}
}
