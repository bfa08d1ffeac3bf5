package serve

// Tests of the unified admin surface: strict limit parsing on /v2/search,
// the /v2/compact endpoint, the shared v2 error envelope across admin
// endpoints, and the node client dlrouter's boot check uses
// (transport.Remote).

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// TestV2SearchLimitStrict locks /v2/search's limit validation: only plain
// unsigned decimal digits are accepted; everything else is a 400 parse
// error, never a silent default.
func TestV2SearchLimitStrict(t *testing.T) {
	e, _ := fixture(t)
	ts := httptest.NewServer(New(e, Options{}))
	defer ts.Close()

	cases := []struct {
		limit  string
		status int
	}{
		{"", http.StatusOK},  // absent: unpaginated
		{"0", http.StatusOK}, // zero: unpaginated
		{"3", http.StatusOK}, // plain digits
		{"003", http.StatusOK},
		{"-2", http.StatusBadRequest},         // negative
		{"+5", http.StatusBadRequest},         // explicit sign
		{" 5", http.StatusBadRequest},         // whitespace
		{"5 ", http.StatusBadRequest},         // trailing whitespace
		{"2.5", http.StatusBadRequest},        // float
		{"0x10", http.StatusBadRequest},       // hex
		{"1e3", http.StatusBadRequest},        // exponent
		{"abc", http.StatusBadRequest},        // letters
		{"9999999999", http.StatusBadRequest}, // overflowing
	}
	for _, tc := range cases {
		m := getJSON(t, ts.URL, "/v2/search?kw=final&limit="+strings.ReplaceAll(tc.limit, " ", "%20"), tc.status)
		if tc.status == http.StatusBadRequest && m["code"] != "parse" {
			t.Fatalf("limit %q: code = %v, want parse", tc.limit, m["code"])
		}
	}
	// A valid limit actually paginates.
	m := getJSON(t, ts.URL, "/v2/search?kw=final&limit=3", http.StatusOK)
	if int(m["count"].(float64)) > 3 {
		t.Fatalf("limit=3 returned %v items", m["count"])
	}
}

// TestV2MethodEnvelope locks that every endpoint — the v2 surface and
// /healthz, /metrics and /debug/vars — answers a wrong method with the
// typed {error,code} envelope.
func TestV2MethodEnvelope(t *testing.T) {
	e, _ := fixture(t)
	ts := httptest.NewServer(New(e, Options{}))
	defer ts.Close()

	check := func(method, path string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d", method, path, resp.StatusCode)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("%s %s: bad JSON: %v", method, path, err)
		}
		if m["code"] != "method" {
			t.Fatalf("%s %s: code = %v, want method", method, path, m["code"])
		}
	}
	check(http.MethodPost, "/v2/search?kw=final")
	check(http.MethodPost, "/v2/partial?kw=final&text=0")
	check(http.MethodPost, "/v2/manifest")
	check(http.MethodGet, "/v2/reload")
	check(http.MethodGet, "/v2/commit")
	check(http.MethodGet, "/v2/compact")
	check(http.MethodPost, "/healthz")
	check(http.MethodPost, "/metrics")
	check(http.MethodPost, "/debug/vars")
}

// wireAdmin installs a committer that appends one extra single-video
// segment, as DigitalLibrary.CommitToken does, and a compactor that merges
// all segments. The function it returns is Library.IndexBatch's install:
// one video added to a copy of the newest segment, installed at the same
// generation and swapped in.
func wireAdmin(t *testing.T, srv *Server, idx *core.Part) (indexBatch func()) {
	t.Helper()
	parts := []*core.Part{idx}
	metas := []core.SegmentMeta{{ID: 1}}
	nextID := int64(2)
	gen := srv.Engine().VideoIndex().Generation()
	install := func() error {
		view, err := core.NewSegmentedIndex(parts, metas, gen)
		if err != nil {
			return err
		}
		srv.Swap(srv.Engine().WithVideo(view))
		return nil
	}
	srv.SetCommitter(func(ctx context.Context, paths []string, token string) error {
		base := parts[len(parts)-1].IDState()
		seg := core.NewMetaIndexAt(base)
		vid := seg.AddVideo(core.Video{Name: "committed-clip", FPS: 25, Frames: 100})
		seg.AddEvent(core.Event{VideoID: vid, Kind: "net-play",
			Interval: core.Interval{Start: 0, End: 50}, Confidence: 0.7})
		parts = append(parts, seg.Freeze())
		metas = append(metas, core.SegmentMeta{ID: nextID, Base: base})
		nextID++
		gen++
		return install()
	})
	srv.SetCompactor(func(ctx context.Context, target int) (bool, error) {
		if len(parts) < 2 {
			return false, nil
		}
		merged, meta, err := core.MergeSegmentRange(parts, metas, 0, len(parts))
		if err != nil {
			return false, err
		}
		parts = []*core.Part{merged.Freeze()}
		metas = []core.SegmentMeta{meta}
		gen++
		return true, install()
	})
	return func() {
		t.Helper()
		last := len(parts) - 1
		head, _, err := core.MergeSegmentRange(parts, metas, last, len(parts))
		if err != nil {
			t.Fatal(err)
		}
		vid := head.AddVideo(core.Video{Name: "batched-clip", FPS: 25, Frames: 100})
		head.AddEvent(core.Event{VideoID: vid, Kind: "rally",
			Interval: core.Interval{Start: 0, End: 40}, Confidence: 0.6})
		parts[last] = head.Freeze()
		if err := install(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestV2CompactAndAdminClient drives commit and compact over HTTP and reads
// the node back through transport.Remote, the client dlrouter's boot check
// uses.
func TestV2CompactAndAdminClient(t *testing.T) {
	e, idx := fixture(t)
	srv := New(e, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()
	node := transport.NewRemote(ts.URL, nil)

	// Unconfigured compactor: 501 with the typed envelope.
	if m := postJSON(t, ts.URL, "/v2/compact", `{"target":0}`, http.StatusNotImplemented); m["code"] != "no_compactor" {
		t.Fatalf("unconfigured compact: %v", m)
	}

	wireAdmin(t, srv, idx)

	// Health and manifest through the node client dlrouter boots with.
	if err := node.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if h := getJSON(t, ts.URL, "/healthz", http.StatusOK); h["status"] != "ok" || h["segments"] != 1.0 {
		t.Fatalf("health off: %v", h)
	}
	man, err := node.Manifest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) != 1 {
		t.Fatalf("manifest off: %+v", man)
	}

	// Commit grows the segment set.
	scenesBefore := countScenes(t, ts.URL)
	ci := postJSON(t, ts.URL, "/v2/commit", `{"paths":["a.svf"]}`, http.StatusOK)
	if ci["segments"] != 2.0 || ci["generation"] != float64(man.Generation+1) {
		t.Fatalf("commit answer off: %v", ci)
	}
	// The client decodes the node's typed envelope: a read conditional on
	// the pre-commit generation is a 409 stale_generation, which arrives as
	// ErrStale.
	_, err = node.Partial(ctx, transport.Query{Scenes: "net-play"}, transport.Sel{Video: []int{0}}, man.Generation)
	if !errors.Is(err, transport.ErrStale) {
		t.Fatalf("stale read through the node client: err = %v, want ErrStale", err)
	}

	// Compact merges back to one segment; answers are unchanged.
	co := postJSON(t, ts.URL, "/v2/compact", `{"target":0}`, http.StatusOK)
	if co["changed"] != true || co["segments"] != 1.0 || co["generation"] != ci["generation"].(float64)+1 {
		t.Fatalf("compact answer off: %v", co)
	}
	if got := countScenes(t, ts.URL); got != scenesBefore+1 {
		t.Fatalf("scenes after compact = %d, want %d", got, scenesBefore+1)
	}

	// A second compact is a no-op.
	if co2 := postJSON(t, ts.URL, "/v2/compact", `{"target":0}`, http.StatusOK); co2["changed"] != false {
		t.Fatal("compacting one segment reported a change")
	}

	// A reload of the same segment set mints a snapshot and keeps the
	// generation; /healthz and /debug/vars report both alike.
	srv.Swap(srv.Engine().WithVideo(srv.Engine().VideoIndex()))
	h := getJSON(t, ts.URL, "/healthz", http.StatusOK)
	if m := metricsJSON(t, ts.URL); m["generation"] != co["generation"] || h["generation"] != co["generation"] ||
		m["snapshot"] != h["snapshot"] || h["snapshot"] != float64(srv.Engine().Snapshot()) {
		t.Fatalf("after a reload: /debug/vars %v, /healthz %v, want generation %v", m, h, co["generation"])
	}

	// Commit with no paths: typed 400.
	if m := postJSON(t, ts.URL, "/v2/commit", `{"paths":[]}`, http.StatusBadRequest); m["code"] != "parse" {
		t.Fatalf("empty commit: %v", m)
	}

	// Metrics counted the work.
	m := metricsJSON(t, ts.URL)
	if m["commits"] != 1 || m["compactions"] != 1 {
		t.Fatalf("admin counters off: %v", m)
	}
}

// postJSON posts body to path and decodes the JSON answer, requiring the
// given status.
func postJSON(t *testing.T, base, path, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, wantStatus)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("POST %s: bad JSON: %v", path, err)
	}
	return m
}

func countScenes(t *testing.T, base string) int {
	t.Helper()
	m := getJSON(t, base, "/v2/search?kind=net-play", http.StatusOK)
	return int(m["total"].(float64))
}
