package serve

// Observability of the frozen columnar scene view on the HTTP surface:
// explain plans report whether a scene operator answered from the cached
// view or had to rebuild it, and /metrics exposes the cumulative build
// count as a Prometheus counter (and the same count on /debug/vars).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dlse"
)

func TestSceneViewObservability(t *testing.T) {
	e, _ := fixture(t)
	ts := httptest.NewServer(New(e, Options{}))
	defer ts.Close()
	// The count is the process's; this test reads what its queries add.
	builds0 := core.ViewBuilds()

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
	viewOf := func(m map[string]any, opName string) string {
		t.Helper()
		ex, _ := m["explain"].(map[string]any)
		if ex == nil {
			t.Fatalf("response has no explain payload: %v", m)
		}
		for _, op := range ex["ops"].([]any) {
			o := op.(map[string]any)
			if o["op"] == opName {
				v, _ := o["view"].(string)
				return v
			}
		}
		t.Fatalf("no %q op in explain: %v", opName, ex)
		return ""
	}

	// Engine construction reads no segment, so the first scene query builds
	// the frozen view and the next one, of another kind, answers from it.
	if v := viewOf(get("kind=net-play&explain=1"), "scenes"); v != "rebuilt" {
		t.Fatalf("first scene query view = %q, want rebuilt", v)
	}
	if v := viewOf(get("kind=service&explain=1"), "scenes"); v != "cached" {
		t.Fatalf("second scene query view = %q, want cached", v)
	}

	// Later queries keep answering from the view. A different kind keeps
	// the answer cache from short-circuiting the execution.
	if v := viewOf(get("kind=rally&explain=1"), "scenes"); v != "cached" {
		t.Fatalf("follow-up scene query view = %q, want cached", v)
	}

	// The combined plan's video operator reports the same signal.
	q := url.QueryEscape(combinedQuery)
	if v := viewOf(get("q="+q+"&explain=1"), "video"); v != "cached" {
		t.Fatalf("combined query video op view = %q, want cached", v)
	}

	// /metrics: the cumulative build count in Prometheus counter form —
	// up by the one build of the first scene query.
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
		"# TYPE dl_sceneview_builds_total counter",
		fmt.Sprintf("dl_sceneview_builds_total %d\n", builds0+1),
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// The same count on /debug/vars.
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
	if got, _ := vars["sceneview_builds"].(float64); got != float64(builds0+1) {
		t.Fatalf("/debug/vars sceneview_builds = %v, want %d", vars["sceneview_builds"], builds0+1)
	}
}

// TestCountersNeverFall: no _total series on /metrics falls across a
// commit, an index batch, a scene query, a compaction, another scene query
// and a reload. The batch, the compaction and the reload each install
// partitions that have built no scene view in place of ones that have or
// may, and dl_sceneview_builds_total counts every build of the process.
func TestCountersNeverFall(t *testing.T) {
	e, idx := fixture(t)
	srv := New(e, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	indexBatch := wireAdmin(t, srv, idx)
	// A reload re-reads the library: its one partition is a new copy.
	srv.SetReloader(func(context.Context) (*dlse.Engine, error) {
		video := srv.Engine().VideoIndex()
		parts, err := video.Parts()
		if err != nil {
			return nil, err
		}
		copied, meta, err := core.MergeSegmentRange(parts, video.Metas(), 0, len(parts))
		if err != nil {
			return nil, err
		}
		view, err := core.NewSegmentedIndex([]*core.Part{copied.Freeze()}, []core.SegmentMeta{meta}, video.Generation()+1)
		if err != nil {
			return nil, err
		}
		return srv.Engine().WithVideo(view), nil
	})
	totals := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, line := range strings.Split(string(body), "\n") {
			series, value, ok := strings.Cut(line, " ")
			name, _, _ := strings.Cut(series, "{")
			if !ok || strings.HasPrefix(line, "#") || !strings.HasSuffix(name, "_total") {
				continue
			}
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("/metrics line %q: %v", line, err)
			}
			out[series] = v
		}
		return out
	}
	start := totals()
	last := start
	for _, step := range []struct {
		name string
		do   func()
	}{
		{"commit", func() { postJSON(t, ts.URL, "/v2/commit", `{"paths":["a.svf"]}`, http.StatusOK) }},
		{"index batch", indexBatch},
		{"scene query", func() { countScenes(t, ts.URL) }},
		{"compact", func() { postJSON(t, ts.URL, "/v2/compact", `{"target":0}`, http.StatusOK) }},
		{"second scene query", func() { countScenes(t, ts.URL) }},
		{"reload", func() { postJSON(t, ts.URL, "/v2/reload", "", http.StatusOK) }},
	} {
		step.do()
		now := totals()
		for series, v := range last {
			if now[series] < v {
				t.Errorf("after the %s, %s fell from %v to %v", step.name, series, v, now[series])
			}
		}
		last = now
	}
	// Two partitions built a view for the first scene query, the merged one
	// for the second.
	if got := last["dl_sceneview_builds_total"] - start["dl_sceneview_builds_total"]; got != 3 {
		t.Errorf("dl_sceneview_builds_total rose by %v over the steps, want 3", got)
	}
}
