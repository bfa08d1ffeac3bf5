package transport_test

// Parity contract of the transport tier: a Remote source (over the
// /v2/partial HTTP surface) must answer byte-identically to a Local
// source wrapping the same engine, and partial answers over disjoint
// segment selections must merge back into the full monolithic answer.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dlse"
	"repro/internal/ir"
	"repro/internal/serve"
	"repro/internal/transport"
	"repro/internal/webspace"
)

// fixture builds an engine with 3 text segments and 2 video segments:
// enough structure for partial reads to select real subsets.
func fixture(t testing.TB) *dlse.Engine {
	t.Helper()
	site, err := webspace.GenerateAusOpen(webspace.SiteConfig{
		Players: 32, YearStart: 1999, YearEnd: 2001, Seed: 11,
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
	}
	base := seg1.IDState()
	seg2 := core.NewMetaIndexAt(base)
	id := seg2.AddVideo(core.Video{Name: "late-commit", FPS: 25, Frames: 300})
	seg2.AddEvent(core.Event{VideoID: id, Kind: "net-play", Interval: core.Interval{Start: 10, End: 60}, Confidence: 0.7})
	view, err := core.NewSegmentedIndex(
		[]*core.Part{seg1.Freeze(), seg2.Freeze()},
		[]core.SegmentMeta{{ID: 1}, {ID: 2, Base: base}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	e, err := dlse.NewSegmented(site, view, dlse.Options{TextSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sources builds a Local and a Remote source over the same engine.
func sources(t *testing.T, e *dlse.Engine) (*transport.Local, *transport.Remote) {
	t.Helper()
	local := transport.NewLocal(func() *dlse.Engine { return e })
	node := httptest.NewServer(serve.New(e, serve.Options{}))
	t.Cleanup(node.Close)
	return local, transport.NewRemote(node.URL, nil)
}

func TestManifestParity(t *testing.T) {
	e := fixture(t)
	local, remote := sources(t, e)
	ctx := context.Background()

	lm, err := local.Manifest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := remote.Manifest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lm, rm) {
		t.Fatalf("manifests diverge:\nlocal  %+v\nremote %+v", lm, rm)
	}
	if lm.TextSegments != 3 || len(lm.Segments) != 2 || lm.Generation != 7 {
		t.Fatalf("manifest shape off: %+v", lm)
	}
	if lm.Segments[1].BaseVideo == 0 {
		t.Fatal("second segment reports zero ID base")
	}
}

func TestPartialKeywordParity(t *testing.T) {
	e := fixture(t)
	local, remote := sources(t, e)
	ctx := context.Background()

	selections := [][]int{{0}, {1}, {2}, {0, 2}, {0, 1, 2}}
	for _, ords := range selections {
		q := transport.Query{Keyword: "australian open final"}
		lp, err := local.Partial(ctx, q, transport.Sel{Text: ords}, 7)
		if err != nil {
			t.Fatalf("local %v: %v", ords, err)
		}
		rp, err := remote.Partial(ctx, q, transport.Sel{Text: ords}, 7)
		if err != nil {
			t.Fatalf("remote %v: %v", ords, err)
		}
		if !reflect.DeepEqual(lp, rp) {
			t.Fatalf("ords %v: partial answers diverge:\nlocal  %+v\nremote %+v", ords, lp, rp)
		}
		// An individual segment may legitimately hold no matching page;
		// the full selection must rank something.
		if len(ords) == 3 && len(lp.Hits) == 0 {
			t.Fatalf("ords %v: no hits", ords)
		}
		if lp.Matched != len(lp.Hits) {
			t.Fatalf("ords %v: matched %d, %d hits at K=0", ords, lp.Matched, len(lp.Hits))
		}
		// A bounded leg answers the prefix of the unbounded one and still
		// reports everything that matched, over the wire too; the vector
		// lane likewise.
		for _, full := range []transport.Query{q, {Vector: q.Keyword}} {
			want, err := local.Partial(ctx, full, transport.Sel{Text: ords}, 7)
			if err != nil {
				t.Fatal(err)
			}
			top := full
			top.K = 2
			for _, src := range []transport.SegmentSource{local, remote} {
				got, err := src.Partial(ctx, top, transport.Sel{Text: ords}, 7)
				if err != nil {
					t.Fatal(err)
				}
				if got.Matched != want.Matched || len(got.Hits) > 2 || !reflect.DeepEqual(got.Hits, want.Hits[:len(got.Hits)]) ||
					len(got.Hits) != min(2, len(want.Hits)) {
					t.Fatalf("ords %v %s K=2: %d hits, matched %d (unbounded: %d hits, matched %d)",
						ords, src.Addr(), len(got.Hits), got.Matched, len(want.Hits), want.Matched)
				}
			}
		}
	}
}

// TestPartialMergeEqualsMonolithic locks the associativity the router
// depends on: partial answers over disjoint selections, merged under the
// global order, equal the engine's own full search.
func TestPartialMergeEqualsMonolithic(t *testing.T) {
	e := fixture(t)
	local, _ := sources(t, e)
	ctx := context.Background()
	const kw = "australian open final"

	rs, err := e.Search(ctx, dlse.Query{Keyword: kw})
	if err != nil {
		t.Fatal(err)
	}
	full := make([]ir.Hit, len(rs.Items))
	for i, it := range rs.Items {
		full[i] = ir.Hit{Doc: it.Doc, Name: it.Page, Score: it.Score}
	}
	p1, err := local.Partial(ctx, transport.Query{Keyword: kw}, transport.Sel{Text: []int{0}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := local.Partial(ctx, transport.Query{Keyword: kw}, transport.Sel{Text: []int{1, 2}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	toHits := func(p *transport.Partial) []ir.Hit {
		hits := make([]ir.Hit, len(p.Hits))
		for i, h := range p.Hits {
			hits[i] = ir.Hit{Doc: h.Doc, Name: h.Page, Score: h.Score}
		}
		return hits
	}
	merged := ir.MergeHits([][]ir.Hit{toHits(p1), toHits(p2)}, 0)
	if !reflect.DeepEqual(merged, full) {
		t.Fatalf("merged partials diverge from monolithic search:\nmerged %v\nfull   %v", merged, full)
	}
}

func TestPartialScenesParity(t *testing.T) {
	e := fixture(t)
	local, remote := sources(t, e)
	ctx := context.Background()

	q := transport.Query{Scenes: "net-play"}
	lp, err := local.Partial(ctx, q, transport.Sel{Video: []int{0, 1}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := remote.Partial(ctx, q, transport.Sel{Video: []int{0, 1}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lp, rp) {
		t.Fatalf("scene partials diverge:\nlocal  %+v\nremote %+v", lp, rp)
	}
	if len(lp.Groups) != 2 || len(lp.Groups[1].Scenes) != 1 {
		t.Fatalf("scene groups off: %+v", lp.Groups)
	}

	// Concatenating per-segment groups in ordinal order equals the
	// monolithic walk.
	all, err := e.VideoIndex().Scenes("net-play")
	if err != nil {
		t.Fatal(err)
	}
	var concat []core.Scene
	for _, g := range lp.Groups {
		concat = append(concat, g.Scenes...)
	}
	if !reflect.DeepEqual(concat, all) {
		t.Fatal("concatenated scene groups diverge from monolithic Scenes")
	}
}

func TestPartialErrorsParity(t *testing.T) {
	e := fixture(t)
	local, remote := sources(t, e)
	ctx := context.Background()

	for name, src := range map[string]transport.SegmentSource{"local": local, "remote": remote} {
		// Stale generation.
		_, err := src.Partial(ctx, transport.Query{Keyword: "final"}, transport.Sel{Text: []int{0}}, 99)
		if !errors.Is(err, transport.ErrStale) {
			t.Fatalf("%s stale: err = %v, want ErrStale", name, err)
		}
		// Out-of-range ordinal.
		_, err = src.Partial(ctx, transport.Query{Keyword: "final"}, transport.Sel{Text: []int{9}}, -1)
		if !errors.Is(err, transport.ErrBadSelection) {
			t.Fatalf("%s bad ordinal: err = %v, want ErrBadSelection", name, err)
		}
		// Empty selection.
		_, err = src.Partial(ctx, transport.Query{Keyword: "final"}, transport.Sel{}, -1)
		if !errors.Is(err, transport.ErrBadSelection) {
			t.Fatalf("%s empty selection: err = %v, want ErrBadSelection", name, err)
		}
		// Unrankable query text.
		_, err = src.Partial(ctx, transport.Query{Keyword: "the of and"}, transport.Sel{Text: []int{0}}, -1)
		if !errors.Is(err, ir.ErrEmptyQry) {
			t.Fatalf("%s empty query: err = %v, want ErrEmptyQry", name, err)
		}
		// Health.
		if err := src.Health(ctx); err != nil {
			t.Fatalf("%s health: %v", name, err)
		}
	}
}

// TestPartialOfBadOrdinalsAcrossLanes: whichever lane a query reads — the
// text ordinals both ranked lanes share, or video partitions — a placement
// naming a segment the snapshot lacks fails the same way: ErrBadSelection,
// saying which ordinal space, which ordinal and how many segments there
// are, also for video ordinals a ranked query does not read. The fixture
// has 3 text and 2 video segments.
func TestPartialOfBadOrdinalsAcrossLanes(t *testing.T) {
	e := fixture(t)
	shape := regexp.MustCompile(`^transport: bad segment selection: (text|video) selection: segset: no segment ordinal -?\d+ \(have [23]\)$`)
	for _, tc := range []struct {
		q    transport.Query
		sel  transport.Sel
		want string
	}{
		{transport.Query{Keyword: "final"}, transport.Sel{Text: []int{3}}, "text selection: segset: no segment ordinal 3 (have 3)"},
		{transport.Query{Keyword: "final"}, transport.Sel{Text: []int{0, -1}}, "text selection: segset: no segment ordinal -1 (have 3)"},
		{transport.Query{Vector: "final"}, transport.Sel{Text: []int{3}}, "text selection: segset: no segment ordinal 3 (have 3)"},
		{transport.Query{Vector: "final"}, transport.Sel{Text: []int{0}, Video: []int{2}}, "video selection: segset: no segment ordinal 2 (have 2)"},
		{transport.Query{Keyword: "final"}, transport.Sel{Text: []int{0}, Video: []int{2}}, "video selection: segset: no segment ordinal 2 (have 2)"},
		{transport.Query{Scenes: "net-play"}, transport.Sel{Video: []int{2}}, "video selection: segset: no segment ordinal 2 (have 2)"},
		{transport.Query{Scenes: "net-play"}, transport.Sel{Video: []int{-1, 0}}, "video selection: segset: no segment ordinal -1 (have 2)"},
	} {
		_, err := transport.PartialOf(e, tc.q, tc.sel, -1)
		if !errors.Is(err, transport.ErrBadSelection) {
			t.Fatalf("%+v %+v: err = %v, want ErrBadSelection", tc.q, tc.sel, err)
		}
		if !shape.MatchString(err.Error()) || !strings.HasSuffix(err.Error(), tc.want) {
			t.Fatalf("%+v %+v: message %q, want suffix %q", tc.q, tc.sel, err, tc.want)
		}
	}
	// In range, video ordinals beside a vector query are ignored: the lane
	// reads its text ordinals alone, and with none it refuses the leg.
	want, err := transport.PartialOf(e, transport.Query{Vector: "late commit"}, transport.Sel{Text: []int{1}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := transport.PartialOf(e, transport.Query{Vector: "late commit"}, transport.Sel{Text: []int{1}, Video: []int{0, 1}}, -1)
	if err != nil || !reflect.DeepEqual(got.Hits, want.Hits) || got.Matched != want.Matched {
		t.Fatalf("vector leg with video ordinals: %+v, %v; want %+v", got, err, want)
	}
	for _, h := range got.Hits {
		if strings.HasPrefix(h.Page, "video/") {
			t.Fatalf("vector leg answers video document %q", h.Page)
		}
	}
	_, err = transport.PartialOf(e, transport.Query{Vector: "late commit"}, transport.Sel{Video: []int{1}}, -1)
	if !errors.Is(err, transport.ErrBadSelection) {
		t.Fatalf("vector leg over video ordinals only: err = %v, want ErrBadSelection", err)
	}
	_, remote := sources(t, e)
	if status, code := getPartial(t, remote, "vq=late+commit&video=1"); status != http.StatusBadRequest || code != "bad_segment" {
		t.Fatalf("vq= with video= ordinals only: %d %s, want 400 bad_segment", status, code)
	}
}

// TestPartialRepeatedOrdinal: a selection naming an ordinal twice is refused
// — answering it would list that segment's hits twice and double matched —
// with the same ErrBadSelection, byte for byte, through Local and Remote,
// which on the wire is 400 bad_segment.
func TestPartialRepeatedOrdinal(t *testing.T) {
	e := fixture(t)
	local, remote := sources(t, e)
	ctx := context.Background()
	for _, tc := range []struct {
		q   transport.Query
		sel transport.Sel
	}{
		{transport.Query{Keyword: "final"}, transport.Sel{Text: []int{0, 0}}},
		{transport.Query{Keyword: "final"}, transport.Sel{Text: []int{2, 0, 2}}},
		{transport.Query{Vector: "final"}, transport.Sel{Text: []int{0}, Video: []int{1, 1}}},
		{transport.Query{Scenes: "net-play"}, transport.Sel{Video: []int{1, 0, 1}}},
		{transport.Query{Keyword: "final", Ranks: []ir.DocID{1}}, transport.Sel{Text: []int{1, 1}}},
	} {
		_, lerr := local.Partial(ctx, tc.q, tc.sel, -1)
		_, rerr := remote.Partial(ctx, tc.q, tc.sel, -1)
		if !errors.Is(lerr, transport.ErrBadSelection) || !strings.Contains(lerr.Error(), "selected twice") ||
			rerr == nil || lerr.Error() != rerr.Error() {
			t.Fatalf("%+v %+v: local %v, remote %v", tc.q, tc.sel, lerr, rerr)
		}
	}
	status, code := getPartial(t, remote, "kw=final&text=0,0")
	if status != http.StatusBadRequest || code != "bad_segment" {
		t.Fatalf("text=0,0: %d %s, want 400 bad_segment", status, code)
	}
}

// getPartial GETs /v2/partial?query from the node behind remote and returns
// the status and error code.
func getPartial(t *testing.T, remote *transport.Remote, query string) (int, string) {
	t.Helper()
	resp, err := http.Get(remote.Addr() + "/v2/partial?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Code string `json:"code"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body.Code
}

// TestPartialRankLookup locks the rank leg of the hybrid fusion: for either
// lane and any selection, each asked document's rank is its 1-based position
// in the selection's full ranking — 0 for one it does not hold, whether the
// document lies outside the selection or outside the lane — and the Partial
// is identical through Local and Remote.
func TestPartialRankLookup(t *testing.T) {
	e := fixture(t)
	local, remote := sources(t, e)
	ctx := context.Background()
	const text = "australian open final"
	ranked := 0
	for _, sel := range []transport.Sel{{Text: []int{0}}, {Text: []int{1, 2}}, {Text: []int{0, 1, 2}, Video: []int{1}}, {Text: []int{2}, Video: []int{0, 1}}} {
		for _, lane := range []transport.Query{{Keyword: text}, {Vector: text}} {
			full, err := local.Partial(ctx, lane, sel, 7)
			if err != nil {
				t.Fatal(err)
			}
			want := map[ir.DocID]int{}
			for i, h := range full.Hits {
				want[h.Doc] = i + 1
			}
			// As many documents as the lane holds, backwards, from one past
			// its last page.
			q := lane
			for d := e.TextIndex().Docs(); d > 0; d-- {
				q.Ranks = append(q.Ranks, ir.DocID(d))
			}
			lp, err := local.Partial(ctx, q, sel, 7)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := remote.Partial(ctx, q, sel, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(lp, rp) {
				t.Fatalf("%+v %+v: rank lookups diverge:\nlocal  %+v\nremote %+v", lane, sel, lp, rp)
			}
			for i, d := range q.Ranks {
				if lp.Ranks[i] != want[d] {
					t.Fatalf("%+v %+v: doc %d ranks %d, want %d", lane, sel, d, lp.Ranks[i], want[d])
				}
				if want[d] > 0 {
					ranked++
				}
			}
			if lp.Hits != nil || lp.Matched != 0 {
				t.Fatalf("%+v %+v: a rank lookup answered hits: %+v", lane, sel, lp)
			}
		}
	}
	if ranked == 0 {
		t.Fatal("no lookup ranked anything")
	}
}

// TestPartialRankLookupErrors: a rank lookup beside K, beside a scenes
// query, longer than its lane, or naming a negative document is refused as a
// bad selection; an unrankable text or a moved generation fails as any
// partial read does — through Local and Remote with the same error, and the
// same text wherever the node's PartialOf raised it.
func TestPartialRankLookupErrors(t *testing.T) {
	e := fixture(t)
	local, remote := sources(t, e)
	ctx := context.Background()
	text := transport.Sel{Text: []int{0}}
	tooMany := make([]ir.DocID, e.TextIndex().Docs()+1)
	for _, tc := range []struct {
		q        transport.Query
		sel      transport.Sel
		gen      int64
		want     error
		sameText bool
	}{
		{transport.Query{Keyword: "final", K: 3, Ranks: []ir.DocID{1}}, text, -1, transport.ErrBadSelection, false},
		{transport.Query{Scenes: "net-play", Ranks: []ir.DocID{1}}, transport.Sel{Video: []int{0}}, -1, transport.ErrBadSelection, true},
		{transport.Query{Keyword: "final", Ranks: tooMany}, text, -1, transport.ErrBadSelection, true},
		{transport.Query{Vector: "final", Ranks: []ir.DocID{1}}, transport.Sel{}, -1, transport.ErrBadSelection, true},
		{transport.Query{Keyword: "final", Ranks: []ir.DocID{1}}, transport.Sel{Video: []int{0}}, -1, transport.ErrBadSelection, true},
		{transport.Query{Keyword: "final", Ranks: []ir.DocID{2, -1}}, text, -1, transport.ErrBadSelection, false},
		{transport.Query{Keyword: "the of and", Ranks: []ir.DocID{1}}, text, -1, ir.ErrEmptyQry, true},
		{transport.Query{Vector: "final", Ranks: []ir.DocID{1}}, text, 99, transport.ErrStale, true},
	} {
		_, lerr := local.Partial(ctx, tc.q, tc.sel, tc.gen)
		_, rerr := remote.Partial(ctx, tc.q, tc.sel, tc.gen)
		if !errors.Is(lerr, tc.want) || !errors.Is(rerr, tc.want) || tc.sameText && lerr.Error() != rerr.Error() {
			t.Fatalf("%+v %+v: local %v, remote %v, want %v", tc.q, tc.sel, lerr, rerr, tc.want)
		}
	}
	// The wire form is strict: a CSV of non-negative document IDs, never
	// beside k= (even empty) or kind=, and only with kw= or vq=.
	for _, q := range []string{
		"kw=final&text=0&ranks=1,2&k=3",
		"kw=final&text=0&ranks=1,2&k=",
		"kind=net-play&video=0&ranks=1",
		"text=0&ranks=1",
		"kw=final&text=0&ranks=1,,2",
		"kw=final&text=0&ranks=1,x",
		"kw=final&text=0&ranks=-1",
		"kw=final&text=0&ranks=+1",
	} {
		if status, code := getPartial(t, remote, q); status != http.StatusBadRequest || code == "" {
			t.Fatalf("%s: %d %q, want a 400", q, status, code)
		}
	}
	if status, _ := getPartial(t, remote, "vq=final&text=0&video=1&ranks=0,1,999999999"); status != http.StatusOK {
		t.Fatalf("well-formed rank lookup: status %d", status)
	}
}

// TestRemoteUnavailable: a node that cannot be reached and a node that
// answers with the v2 surface's 503 "unavailable" envelope (worker-slot wait
// cancelled, draining) both report ErrUnavailable — not a query error — so
// the router tries a replica.
func TestRemoteUnavailable(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":"context canceled","code":"unavailable"}`))
	}))
	defer busy.Close()
	ctx := context.Background()
	for name, url := range map[string]string{"unreachable": "http://127.0.0.1:1", "503 envelope": busy.URL} {
		remote := transport.NewRemote(url, nil)
		if _, err := remote.Manifest(ctx); !errors.Is(err, transport.ErrUnavailable) {
			t.Fatalf("%s: manifest err = %v, want ErrUnavailable", name, err)
		}
		if err := remote.Health(ctx); !errors.Is(err, transport.ErrUnavailable) {
			t.Fatalf("%s: health err = %v, want ErrUnavailable", name, err)
		}
		if _, err := remote.Partial(ctx, transport.Query{Keyword: "x"}, transport.Sel{Text: []int{0}}, -1); !errors.Is(err, transport.ErrUnavailable) {
			t.Fatalf("%s: partial err = %v, want ErrUnavailable", name, err)
		}
	}
}
