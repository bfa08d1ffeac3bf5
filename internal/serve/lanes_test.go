package serve

// End-to-end coverage of the retrieval lanes on the v2 HTTP surface:
// kind=lexical|vector|hybrid select the lane for a kw= query, answers
// page, and each lane moves its own /metrics counter.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dlse"
)

func TestV2SearchLanes(t *testing.T) {
	e, _ := fixture(t)
	ts := httptest.NewServer(New(e, Options{}))
	defer ts.Close()

	get := func(query string) map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v2/search?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("GET %s: status %d: %s", query, resp.StatusCode, body)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	kw := url.QueryEscape("australian open champion")
	// Two lexical (explicit and default), one vector, three hybrid.
	lex := get("kw=" + kw + "&kind=lexical")
	def := get("kw=" + kw)
	vec := get("kw=" + kw + "&kind=vector")
	hy := get("kw=" + kw + "&kind=hybrid")
	get("kw=" + kw + "&kind=hybrid&limit=3")
	get("kw=" + kw + "&kind=hybrid&explain=1")

	// kind=lexical is the spelled-out default: identical answers.
	if lex["total"] != def["total"] {
		t.Fatalf("kind=lexical total %v != bare kw total %v", lex["total"], def["total"])
	}
	for _, m := range []map[string]any{lex, vec, hy} {
		if m["total"].(float64) == 0 {
			t.Fatalf("lane served an empty answer: %v", m)
		}
	}
	// The vector lane ranks every page and nothing else; the hybrid answer
	// is the union of the two lanes, so it ranks every page too.
	pages := float64(e.TextIndex().Docs())
	if vec["total"].(float64) != pages || hy["total"].(float64) != pages {
		t.Fatalf("vector total %v, hybrid total %v, want the %v pages", vec["total"], hy["total"], pages)
	}
	for _, it := range vec["items"].([]any) {
		if pg, _ := it.(map[string]any)["page"].(string); strings.HasPrefix(pg, "video/") {
			t.Fatalf("vector lane answer holds video document %q", pg)
		}
	}

	// Per-lane counters: 2 lexical, 1 vector, 3 hybrid (the limit and
	// explain variants count too — they are hybrid executions).
	resp, err := http.Get(ts.URL + "/metrics")
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
		"# TYPE dl_queries_lexical_total counter",
		"dl_queries_lexical_total 2",
		"# TYPE dl_queries_vector_total counter",
		"dl_queries_vector_total 1",
		"# TYPE dl_queries_hybrid_total counter",
		"dl_queries_hybrid_total 3",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// The same counters surface as JSON on /debug/vars.
	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"queries_lexical": 2, "queries_vector": 1, "queries_hybrid": 3,
	} {
		if got, _ := vars[name].(float64); got != want {
			t.Fatalf("/debug/vars %s = %v, want %v", name, vars[name], want)
		}
	}
}

// TestRankedPrefixCache locks what the cache holds for a ranked lane and
// what "cached" means while a cursor walks it: the entry is the prefix
// ranked so far plus the total; a page inside the prefix is a hit; the first
// fetch past it re-executes in place (not cached, one deepen counted) and
// the same fetch again is a hit; the walk concatenates to the unpaginated
// answer; and dl_cache_items follows what the entries hold.
func TestRankedPrefixCache(t *testing.T) {
	e, _ := fixture(t)
	srv := New(e, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()
	for _, q := range []dlse.Query{{Keyword: "australian open"}, {Vector: "australian open"}, {Hybrid: "australian open"}} {
		srv.InvalidateCache()
		want, err := e.SearchAll(ctx, q, false)
		if err != nil {
			t.Fatal(err)
		}
		if want.Total < 8 {
			t.Fatalf("%+v: fixture answer too small (%d)", q, want.Total)
		}
		deepens := srv.deepens.Value()
		fetch := func(cursor dlse.Cursor, wantCached bool, wantItems int) *dlse.ResultSet {
			t.Helper()
			rs, cached, err := srv.Search(ctx, q, cursor, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			if cached != wantCached || rs.Total != want.Total {
				t.Fatalf("%+v cursor %q: cached=%t total=%d, want %t %d", q, cursor, cached, rs.Total, wantCached, want.Total)
			}
			if got := metricsJSON(t, ts.URL)["cache_items"]; got != float64(wantItems) {
				t.Fatalf("%+v cursor %q: cache holds %v items, want %d", q, cursor, got, wantItems)
			}
			return rs
		}
		p1 := fetch("", false, 2)        // miss: ranked to depth 2
		fetch("", true, 2)               // same page: hit
		p2 := fetch(p1.Cursor, false, 4) // past the prefix: deepened to max(4, 2*2)
		fetch(p1.Cursor, true, 4)        // again: hit
		p3 := fetch(p2.Cursor, false, 8) // 6 needed, doubled to 8
		p4 := fetch(p3.Cursor, true, 8)  // items 6..8 are already held
		if got := srv.deepens.Value() - deepens; got != 2 {
			t.Fatalf("%+v: %d deepens counted, want 2", q, got)
		}
		var walked []dlse.Item
		for _, p := range []*dlse.ResultSet{p1, p2, p3, p4} {
			walked = append(walked, p.Items...)
		}
		if !reflect.DeepEqual(walked, want.Items[:8]) {
			t.Fatalf("%+v: walk over the deepening entry diverges from the unpaginated answer", q)
		}
		// An unlimited fetch ranks the rest; everything after is a hit.
		if rs, cached, err := srv.Search(ctx, q, "", 0, false); err != nil || cached || !reflect.DeepEqual(rs.Items, want.Items) {
			t.Fatalf("%+v: unlimited fetch over a held prefix: cached=%t err=%v", q, cached, err)
		}
		if rs, cached, err := srv.Search(ctx, q, p3.Cursor, 0, false); err != nil || !cached || !reflect.DeepEqual(rs.Items, want.Items[6:]) {
			t.Fatalf("%+v: page of a fully ranked entry: cached=%t err=%v", q, cached, err)
		}
	}
	m := metricsJSON(t, ts.URL)
	if m["cache_deepens"] != 9 || m["cache_items"] == 0 {
		t.Fatalf("/debug/vars: cache_deepens=%v cache_items=%v", m["cache_deepens"], m["cache_items"])
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, wantLine := range []string{"# TYPE dl_cache_deepens_total counter", "dl_cache_deepens_total 9", "# TYPE dl_cache_items gauge"} {
		if !strings.Contains(string(raw), wantLine) {
			t.Fatalf("/metrics missing %q:\n%s", wantLine, raw)
		}
	}
}
