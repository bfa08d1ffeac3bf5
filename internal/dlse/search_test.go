package dlse

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/ir"
)

// TestSearchUnifiedForms locks the unification contract: each of the four
// Query forms reproduces exactly what the engine layer it fronts returns.
func TestSearchUnifiedForms(t *testing.T) {
	e, site := fixture(t)
	ctx := context.Background()

	// Combined query-language form vs parse + plan execution.
	src := `find Player where sex = "female" and exists wonFinals scenes "net-play" via wonFinals.video rank "champion" limit 6`
	req, err := ParseRequest(site.W.Schema(), src)
	if err != nil {
		t.Fatal(err)
	}
	v1, _, err := e.run(ctx, e.Plan(req), false)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := e.Search(ctx, Query{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Items) != len(v1) || rs.Total != len(v1) {
		t.Fatalf("combined: %d items (total %d), plan %d", len(rs.Items), rs.Total, len(v1))
	}
	for i, it := range rs.Items {
		if !reflect.DeepEqual(it, v1[i]) {
			t.Fatalf("combined item %d diverges from the executed plan", i)
		}
	}

	// Structured form.
	rs2, err := e.Search(ctx, Query{Request: &req})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs2.Items, rs.Items) {
		t.Fatal("structured form diverges from source form")
	}

	// Keyword form vs the text lane's own top-k.
	hits, _, err := e.TextIndex().Search("champion final", 10)
	if err != nil {
		t.Fatal(err)
	}
	kw, err := e.Search(ctx, Query{Keyword: "champion final"}, WithLimit(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(kw.Items) != len(hits) {
		t.Fatalf("keyword: %d items, text lane %d hits", len(kw.Items), len(hits))
	}
	for i, it := range kw.Items {
		if it.Page != hits[i].Name || it.Doc != hits[i].Doc || it.Score != hits[i].Score {
			t.Fatalf("keyword item %d = {%s %d %v}, text hit {%s %d %v}",
				i, it.Page, it.Doc, it.Score, hits[i].Name, hits[i].Doc, hits[i].Score)
		}
	}

	// Scene form vs the meta-index lookup.
	scenes, err := e.VideoIndex().Scenes("net-play")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := e.Search(ctx, Query{Scenes: "net-play"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Items) != len(scenes) {
		t.Fatalf("scenes: %d items, index %d", len(sc.Items), len(scenes))
	}
	for i, it := range sc.Items {
		if it.Scene == nil || !reflect.DeepEqual(*it.Scene, scenes[i]) {
			t.Fatalf("scene item %d diverges", i)
		}
	}
}

// TestSearchPaginationDeterministic is the core cursor contract at engine
// level: walking every page via cursors concatenates to exactly the
// unpaginated answer, for every query form and several page sizes.
func TestSearchPaginationDeterministic(t *testing.T) {
	e, _ := fixture(t)
	ctx := context.Background()
	queries := []Query{
		{Source: `find Player where exists wonFinals rank "champion final" limit 0`},
		{Source: MotivatingQueryText},
		{Keyword: "australian open final"},
		{Scenes: "rally"},
	}
	for qi, q := range queries {
		full, err := e.Search(ctx, q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if full.Cursor != "" {
			t.Fatalf("query %d: unpaginated search returned a cursor", qi)
		}
		for _, pageSize := range []int{1, 2, 3, 7, 1000} {
			var walked []Item
			cursor := Cursor("")
			pages := 0
			for {
				page, err := e.Search(ctx, q, WithLimit(pageSize), WithCursor(cursor))
				if err != nil {
					t.Fatalf("query %d page %d: %v", qi, pages, err)
				}
				if page.Total != full.Total {
					t.Fatalf("query %d: page total %d != full total %d", qi, page.Total, full.Total)
				}
				if len(page.Items) > pageSize {
					t.Fatalf("query %d: page of %d items exceeds limit %d", qi, len(page.Items), pageSize)
				}
				walked = append(walked, page.Items...)
				pages++
				if page.Cursor == "" {
					break
				}
				cursor = page.Cursor
				if pages > full.Total+2 {
					t.Fatalf("query %d: cursor walk did not terminate", qi)
				}
			}
			if !reflect.DeepEqual(walked, full.Items) {
				t.Fatalf("query %d pageSize %d: cursor walk diverges from unpaginated answer", qi, pageSize)
			}
		}
	}
}

func TestCursorValidation(t *testing.T) {
	e, _ := fixture(t)
	ctx := context.Background()

	// Malformed tokens.
	for _, c := range []Cursor{"!!!not-base64!!!", "AAAA", "zzzz", "a"} {
		_, err := e.Search(ctx, Query{Keyword: "final"}, WithCursor(c))
		if !errors.Is(err, ErrBadCursor) {
			t.Fatalf("cursor %q: err = %v, want ErrBadCursor", c, err)
		}
	}

	// A cursor minted for one query presented with another.
	p1, err := e.Search(ctx, Query{Keyword: "final"}, WithLimit(1))
	if err != nil || p1.Cursor == "" {
		t.Fatalf("seed page: cursor=%q err=%v", p1.Cursor, err)
	}
	if _, err := e.Search(ctx, Query{Keyword: "champion"}, WithCursor(p1.Cursor)); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("cross-query cursor: err = %v, want ErrBadCursor", err)
	}
	// Same query, different cosmetic spelling: canonical keys match, so the
	// cursor stays valid.
	if _, err := e.Search(ctx, Query{Keyword: "Final"}, WithCursor(p1.Cursor)); err != nil {
		t.Fatalf("canonically-equal query rejected cursor: %v", err)
	}
}

// TestSearchExplain locks the acceptance contract: one entry per executed
// planner operator, every timing non-zero, kernel stats on text operators.
func TestSearchExplain(t *testing.T) {
	e, _ := fixture(t)
	ctx := context.Background()

	full := `find Player where sex = "female" and exists wonFinals scenes "net-play" via wonFinals.video rank "australian open final"`
	rs, err := e.Search(ctx, Query{Source: full}, WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Explain == nil {
		t.Fatal("no explain payload")
	}
	wantOps := []string{"concept", "video", "text", "merge"}
	if len(rs.Explain.Ops) != len(wantOps) {
		t.Fatalf("explain ops = %d, want %d (%+v)", len(rs.Explain.Ops), len(wantOps), rs.Explain.Ops)
	}
	for i, op := range rs.Explain.Ops {
		if op.Op != wantOps[i] {
			t.Fatalf("op %d = %q, want %q", i, op.Op, wantOps[i])
		}
		if op.Duration <= 0 {
			t.Fatalf("op %q has non-positive duration %v", op.Op, op.Duration)
		}
	}
	var textOp *OpStat
	for i := range rs.Explain.Ops {
		if rs.Explain.Ops[i].Op == "text" {
			textOp = &rs.Explain.Ops[i]
		}
	}
	if textOp.Kernel == nil || textOp.Kernel.TermsMatched == 0 || textOp.Kernel.PostingsScored == 0 {
		t.Fatalf("text op kernel stats missing or empty: %+v", textOp.Kernel)
	}

	// Concept-only plan: one operator + merge.
	rs, err = e.Search(ctx, Query{Source: `find Player limit 3`}, WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Explain.Ops) != 2 || rs.Explain.Ops[0].Op != "concept" {
		t.Fatalf("concept-only explain = %+v", rs.Explain.Ops)
	}

	// Keyword and scene forms carry their own single-operator explains.
	kw, err := e.Search(ctx, Query{Keyword: "champion"}, WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	if len(kw.Explain.Ops) != 1 || kw.Explain.Ops[0].Op != "keyword" || kw.Explain.Ops[0].Kernel == nil {
		t.Fatalf("keyword explain = %+v", kw.Explain)
	}
	sc, err := e.Search(ctx, Query{Scenes: "net-play"}, WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Explain.Ops) != 1 || sc.Explain.Ops[0].Op != "scenes" || sc.Explain.Ops[0].Duration <= 0 {
		t.Fatalf("scenes explain = %+v", sc.Explain)
	}

	// Explain off by default.
	plain, err := e.Search(ctx, Query{Keyword: "champion"})
	if err != nil || plain.Explain != nil {
		t.Fatalf("explain attached without WithExplain (err=%v)", err)
	}
}

func TestSearchErrorTaxonomy(t *testing.T) {
	e, site := fixture(t)
	ctx := context.Background()

	// Empty and ambiguous queries.
	if _, err := e.Search(ctx, Query{}); !errors.Is(err, ErrParse) {
		t.Fatalf("empty query: %v", err)
	}
	if _, err := e.Search(ctx, Query{Keyword: "x", Scenes: "y"}); !errors.Is(err, ErrParse) {
		t.Fatalf("ambiguous query: %v", err)
	}

	// Syntax errors carry positions.
	_, err := e.Search(ctx, Query{Source: `find Player where sex = "unterminated`})
	if !errors.Is(err, ErrParse) {
		t.Fatalf("unterminated string: %v", err)
	}
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Pos < 0 {
		t.Fatalf("parse error lacks position: %#v", err)
	}

	// Unknown concepts are their own class of failure.
	for _, src := range []string{`find Ghost`, `find Player where nothere.year = 1`, `find Player where ghostattr = 1`} {
		_, err := e.Search(ctx, Query{Source: src})
		if !errors.Is(err, ErrUnknownConcept) {
			t.Fatalf("%q: err = %v, want ErrUnknownConcept", src, err)
		}
		if errors.Is(err, ErrParse) {
			t.Fatalf("%q: schema error also claims ErrParse", src)
		}
	}

	// Scene queries need a video index.
	empty, err := NewSegmented(site, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Search(ctx, Query{Scenes: "net-play"}); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("scene query without index: %v", err)
	}

	// Unrankable keyword text surfaces the raw IR sentinel.
	if _, err := e.Search(ctx, Query{Keyword: "the of and"}); !errors.Is(err, ir.ErrEmptyQry) {
		t.Fatalf("stopword keyword query: %v", err)
	}
}

// TestNormalizeCanonicalKeys checks that cosmetically different queries
// with identical retrieval semantics share a canonical key (the cache and
// cursor identity), and different retrievals do not.
func TestNormalizeCanonicalKeys(t *testing.T) {
	e, _ := fixture(t)
	_, k1, err := e.Normalize(Query{Keyword: "Champion  FINAL"})
	if err != nil {
		t.Fatal(err)
	}
	_, k2, err := e.Normalize(Query{Keyword: "champions finals"}) // stemming collapses these
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("cosmetic keyword variants got distinct keys %q / %q", k1, k2)
	}
	_, k3, _ := e.Normalize(Query{Keyword: "rally"})
	if k3 == k1 {
		t.Fatal("distinct keyword queries share a key")
	}

	// Source text and its parsed request normalize identically.
	src := `find Player where sex = "female" limit 5`
	req, err := ParseRequest(e.Space().Schema(), src)
	if err != nil {
		t.Fatal(err)
	}
	_, ks, _ := e.Normalize(Query{Source: src})
	_, kr, _ := e.Normalize(Query{Request: &req})
	if ks != kr {
		t.Fatalf("source/request keys diverge: %q / %q", ks, kr)
	}
}
