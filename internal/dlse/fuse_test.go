package dlse

// Determinism contract of the vector and hybrid lanes: reciprocal-rank
// fusion tie-breaks are total (score desc, global DocID asc), so the same
// corpus partitioned 1/2/3 ways — and grown by a commit — answers both
// lanes byte-identically, paginated or not.

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
)

// TestFuseRRF locks the fusion arithmetic and its tie-break: score =
// sum over lanes of 1/(RRFK+rank), rank 1-based; ties order by DocID.
func TestFuseRRF(t *testing.T) {
	lex := []Item{
		{Page: "a", Doc: 0, Score: 9},
		{Page: "b", Doc: 1, Score: 5},
	}
	vec := []Item{
		{Page: "b", Doc: 1, Score: 0.8},
		{Page: "video/x", Doc: 7, Score: 0.6},
	}
	fused := FuseRRF(lex, vec)
	if len(fused) != 3 {
		t.Fatalf("%d fused items, want 3", len(fused))
	}
	// Doc 1 appears in both lanes (ranks 2 and 1), docs 0 and 7 in one
	// lane each at rank 1 and 2 — so doc 1 leads, then doc 0, then doc 7.
	// rr mirrors the implementation's runtime float64 arithmetic (a
	// constant expression would fold at higher precision).
	rr := func(rank int) float64 { return 1 / float64(RRFK+rank) }
	wantScore := map[ir.DocID]float64{
		1: rr(2) + rr(1),
		0: rr(1),
		7: rr(2),
	}
	wantOrder := []ir.DocID{1, 0, 7}
	for i, it := range fused {
		if it.Doc != wantOrder[i] {
			t.Fatalf("fused[%d].Doc = %d, want %d", i, it.Doc, wantOrder[i])
		}
		if it.Score != wantScore[it.Doc] {
			t.Fatalf("doc %d: score %v, want %v", it.Doc, it.Score, wantScore[it.Doc])
		}
	}
	// Equal-score ties order by DocID ascending: two disjoint docs at the
	// same rank of different lanes.
	tied := FuseRRF([]Item{{Doc: 9, Score: 1}}, []Item{{Doc: 2, Score: 1}})
	if tied[0].Doc != 2 || tied[1].Doc != 9 {
		t.Fatalf("tie-break order %d,%d, want 2,9", tied[0].Doc, tied[1].Doc)
	}
}

var laneQueries = []string{"australian open final", "champion", "smith net play"}

// TestVectorHybridSegmentedParity: vector and hybrid answers are
// byte-identical across 1-, 2-, and 3-segment text partitionings, and the
// vector lane is the text lane's twin: it holds exactly the pages, under
// the same doc IDs, and no video document.
func TestVectorHybridSegmentedParity(t *testing.T) {
	mono, _ := segFixture(t, 1)
	ctx := context.Background()
	for _, nseg := range []int{2, 3} {
		seg, _ := segFixture(t, nseg)
		if seg.VecIndex().Docs() != seg.TextIndex().Docs() {
			t.Fatalf("nseg=%d: vector lane %d docs, text lane %d", nseg, seg.VecIndex().Docs(), seg.TextIndex().Docs())
		}
		for _, text := range laneQueries {
			for _, form := range []Query{{Vector: text}, {Hybrid: text}} {
				want, err := mono.Search(ctx, form)
				if err != nil {
					t.Fatal(err)
				}
				got, err := seg.Search(ctx, form)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want.Items, got.Items) {
					t.Fatalf("nseg=%d %+v: answer diverges", nseg, form)
				}
			}
		}
	}
	// Both lanes name a page by the same doc ID, and the vector lane ranks
	// every page and nothing else.
	text := "smith championship video"
	kw, err := mono.Search(ctx, Query{Keyword: text})
	if err != nil {
		t.Fatal(err)
	}
	pageOf := map[ir.DocID]string{}
	for _, it := range kw.Items {
		pageOf[it.Doc] = it.Page
	}
	rs, err := mono.Search(ctx, Query{Vector: text})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Total != mono.TextIndex().Docs() || len(rs.Items) != rs.Total {
		t.Fatalf("vector answer: %d items of %d, want every one of %d pages", len(rs.Items), rs.Total, mono.TextIndex().Docs())
	}
	shared := 0
	for _, it := range rs.Items {
		if strings.HasPrefix(it.Page, "video/") {
			t.Fatalf("vector answer holds video document %q", it.Page)
		}
		if page, ok := pageOf[it.Doc]; ok {
			shared++
			if page != it.Page {
				t.Fatalf("doc %d: keyword lane names %q, vector lane %q", it.Doc, page, it.Page)
			}
		}
	}
	if shared != len(kw.Items) {
		t.Fatalf("%d of %d keyword hits found in the vector answer", shared, len(kw.Items))
	}
}

// TestVectorHybridPaginatedWalk: cursor walks over the vector and hybrid
// lanes reproduce the unpaginated answer exactly.
func TestVectorHybridPaginatedWalk(t *testing.T) {
	e, _ := segFixture(t, 3)
	ctx := context.Background()
	for _, form := range []Query{{Vector: "champion"}, {Hybrid: "australian open final"}} {
		full, err := e.Search(ctx, form)
		if err != nil {
			t.Fatal(err)
		}
		var walked []Item
		cursor := Cursor("")
		for {
			pg, err := e.Search(ctx, form, WithLimit(7), WithCursor(cursor))
			if err != nil {
				t.Fatal(err)
			}
			walked = append(walked, pg.Items...)
			if pg.Cursor == "" {
				break
			}
			cursor = pg.Cursor
		}
		if !reflect.DeepEqual(walked, full.Items) {
			t.Fatalf("%+v: paginated walk diverges (%d walked, %d full)",
				form, len(walked), len(full.Items))
		}
	}
}

// TestLaneCacheKeysDistinct: the same text normalizes to distinct cache
// keys per lane, so a cached keyword answer can never serve a vector or
// hybrid query (and vice versa).
func TestLaneCacheKeysDistinct(t *testing.T) {
	e, _ := segFixture(t, 2)
	const text = "australian open Final"
	keys := map[string]string{}
	for lane, q := range map[string]Query{
		"keyword": {Keyword: text},
		"vector":  {Vector: text},
		"hybrid":  {Hybrid: text},
	} {
		_, key, err := e.Normalize(q)
		if err != nil {
			t.Fatal(err)
		}
		for other, k := range keys {
			if k == key {
				t.Fatalf("%s and %s share cache key %q", lane, other, key)
			}
		}
		keys[lane] = key
		// CanonicalKey (the schema-free router path) agrees.
		ck, ok := CanonicalKey(q)
		if !ok || ck != key {
			t.Fatalf("%s: CanonicalKey %q ok=%v, Normalize key %q", lane, ck, ok, key)
		}
	}
}

// TestVectorHybridExplain locks the explain surface of the new lanes:
// plans name the operators, hybrid exposes keyword, vector, and rrf ops.
func TestVectorHybridExplain(t *testing.T) {
	e, _ := segFixture(t, 3)
	ctx := context.Background()

	rs, err := e.Search(ctx, Query{Vector: "champion"}, WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Explain == nil || rs.Explain.Plan != "[vector] → rank" {
		t.Fatalf("vector explain: %+v", rs.Explain)
	}

	rs, err = e.Search(ctx, Query{Hybrid: "champion"}, WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Explain == nil || rs.Explain.Plan != "[keyword ‖ vector] → rrf" {
		t.Fatalf("hybrid explain: %+v", rs.Explain)
	}
	ops := map[string]bool{}
	for _, op := range rs.Explain.Ops {
		ops[op.Op] = true
	}
	for _, want := range []string{"keyword", "vector", "rrf"} {
		if !ops[want] {
			t.Fatalf("hybrid explain missing %q op (have %v)", want, ops)
		}
	}
}

// withCommittedVideo returns e grown by one video segment holding one video
// with one event per kind — the engine image of a one-video commit.
func withCommittedVideo(t *testing.T, e *Engine, name string, kinds ...string) *Engine {
	t.Helper()
	vi := e.VideoIndex()
	parts, err := vi.Parts()
	if err != nil {
		t.Fatal(err)
	}
	metas := vi.Metas()
	base := parts[len(parts)-1].IDState()
	seg := core.NewMetaIndexAt(base)
	id := seg.AddVideo(core.Video{Name: name, FPS: 25, Frames: 100})
	for _, kind := range kinds {
		seg.AddEvent(core.Event{VideoID: id, Kind: kind,
			Interval: core.Interval{Start: 1, End: 9}, Confidence: 0.5})
	}
	view, err := core.NewSegmentedIndex(append(parts, seg.Freeze()),
		append(metas, core.SegmentMeta{ID: metas[len(metas)-1].ID + 1, Base: base}),
		vi.Generation()+1)
	if err != nil {
		t.Fatal(err)
	}
	return e.WithVideo(view)
}

// TestVectorLaneCommit: growing the video library (the engine image of a
// commit) shares both page lanes and leaves every vector and hybrid answer
// byte-identical, at every partitioning.
func TestVectorLaneCommit(t *testing.T) {
	ctx := context.Background()
	for _, nseg := range []int{1, 3} {
		before, _ := segFixture(t, nseg)
		after := withCommittedVideo(t, before, "committed-final-highlight", "net-play")
		if after.VecIndex() != before.VecIndex() || after.TextIndex() != before.TextIndex() {
			t.Fatalf("nseg=%d: the commit rebuilt a page lane", nseg)
		}
		for _, text := range laneQueries {
			for _, form := range []Query{{Vector: text}, {Hybrid: text}} {
				want, err := before.Search(ctx, form)
				if err != nil {
					t.Fatal(err)
				}
				got, err := after.Search(ctx, form)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want.Items, got.Items) || want.Total != got.Total {
					t.Fatalf("nseg=%d post-commit %+v: answer moved", nseg, form)
				}
			}
		}
	}
}
