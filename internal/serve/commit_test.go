package serve

// Tests of the segmented-serving surface: the metrics endpoints and
// the /v2/commit incremental-growth endpoint.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// metricsJSON fetches and decodes the JSON surface at /debug/vars
// (the Prometheus exposition at /metrics has its own test in prom_test.go).
func metricsJSON(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/vars: %d", resp.StatusCode)
	}
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMetricsEndpoint(t *testing.T) {
	e, _ := fixture(t)
	srv := New(e, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	m := metricsJSON(t, ts.URL)
	for _, key := range []string{
		"queries", "commits", "cache_entries", "cache_hits", "cache_misses",
		"active_segments", "generation", "snapshot", "uptime_sec",
	} {
		if _, ok := m[key]; !ok {
			t.Fatalf("metrics missing %q: %v", key, m)
		}
	}
	if m["queries"] != 0 || m["active_segments"] != 1 {
		t.Fatalf("fresh server metrics off: %v", m)
	}

	// Two identical searches: one miss then one hit, two queries counted.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v2/search?kind=net-play")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	m = metricsJSON(t, ts.URL)
	if m["queries"] != 2 {
		t.Fatalf("queries = %v, want 2", m["queries"])
	}
	if m["cache_misses"] < 1 || m["cache_hits"] < 1 {
		t.Fatalf("cache counters off: %v", m)
	}
}

func TestV2CommitEndpoint(t *testing.T) {
	e, idx := fixture(t)
	srv := New(e, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v2/commit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&m)
		return resp, m
	}

	// No committer configured: 501.
	if resp, _ := post(`{"paths":["a.svf"]}`); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("without committer: %d", resp.StatusCode)
	}

	// A committer that appends a new segment with one extra video and
	// installs the extended snapshot — the shape DigitalLibrary.Commit has.
	var gotPaths []string
	var gotToken string
	srv.SetCommitter(func(ctx context.Context, paths []string, token string) error {
		gotPaths = paths
		gotToken = token
		base := idx.IDState()
		seg := core.NewMetaIndexAt(base)
		vid := seg.AddVideo(core.Video{Name: "committed-clip", FPS: 25, Frames: 100})
		seg.AddEvent(core.Event{VideoID: vid, Kind: "net-play",
			Interval: core.Interval{Start: 0, End: 50}, Confidence: 0.7})
		view, err := core.NewSegmentedIndex(
			[]*core.Part{idx, seg.Freeze()},
			[]core.SegmentMeta{{ID: 1}, {ID: 2, Base: base}}, 1)
		if err != nil {
			return err
		}
		srv.Swap(srv.Engine().WithVideo(view))
		return nil
	})

	preVideos := srv.Engine().VideoIndex().Stats().Videos
	resp, m := post(`{"paths":["new-1.svf","new-2.svf"],"token":"tok-abc"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit: %d (%v)", resp.StatusCode, m)
	}
	if len(gotPaths) != 2 || gotPaths[0] != "new-1.svf" {
		t.Fatalf("committer got %v", gotPaths)
	}
	if gotToken != "tok-abc" {
		t.Fatalf("committer got token %q, want tok-abc", gotToken)
	}
	if m["segments"].(float64) != 2 {
		t.Fatalf("segments = %v, want 2", m["segments"])
	}
	if int(m["videos"].(float64)) != preVideos+1 {
		t.Fatalf("videos = %v, want %d", m["videos"], preVideos+1)
	}
	// The committed video serves without a reload.
	sresp, err := http.Get(ts.URL + "/v2/search?kind=net-play")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(sresp.Body); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if !bytes.Contains(body.Bytes(), []byte("committed-clip")) {
		t.Fatal("committed video not searchable")
	}
	if mm := metricsJSON(t, ts.URL); mm["commits"] != 1 || mm["active_segments"] != 2 {
		t.Fatalf("post-commit metrics off: %v", mm)
	}

	// Malformed bodies and methods.
	if resp, _ := post(`{"paths":`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body: %d", resp.StatusCode)
	}
	if resp, _ := post(`{"paths":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty paths: %d", resp.StatusCode)
	}
	gresp, err := http.Get(ts.URL + "/v2/commit")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v2/commit: %d", gresp.StatusCode)
	}
}
