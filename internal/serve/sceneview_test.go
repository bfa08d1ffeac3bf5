package serve

// Observability of the frozen columnar scene view on the HTTP surface:
// explain plans report whether a scene operator answered from the cached
// view or had to rebuild it, and /metrics exposes the cumulative build
// count as a Prometheus counter (and the same count on /debug/vars).

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestSceneViewObservability(t *testing.T) {
	e, idx := fixture(t)
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

	// A write invalidates the view; the next scene query rebuilds it.
	scenes, err := idx.Scenes("net-play")
	if err != nil || len(scenes) == 0 {
		t.Fatalf("scenes: %v, %v", scenes, err)
	}
	idx.AddEvent(core.Event{
		VideoID: scenes[0].Video.ID, Kind: "net-play",
		Interval: core.Interval{Start: 300, End: 350}, Confidence: 0.5,
	})
	if v := viewOf(get("kind=net-play&explain=1"), "scenes"); v != "rebuilt" {
		t.Fatalf("post-write scene query view = %q, want rebuilt", v)
	}

	// Queries after the rebuild answer from the view again. A different
	// kind keeps the answer cache from short-circuiting the execution.
	if v := viewOf(get("kind=rally&explain=1"), "scenes"); v != "cached" {
		t.Fatalf("follow-up scene query view = %q, want cached", v)
	}

	// The combined plan's video operator reports the same signal.
	q := url.QueryEscape(combinedQuery)
	if v := viewOf(get("q="+q+"&explain=1"), "video"); v != "cached" {
		t.Fatalf("combined query video op view = %q, want cached", v)
	}

	// /metrics: the cumulative build count in Prometheus counter form —
	// one build from the first scene query, one from the post-write rebuild.
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
		"dl_sceneview_builds_total 2",
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
	if got, _ := vars["sceneview_builds"].(float64); got != 2 {
		t.Fatalf("/debug/vars sceneview_builds = %v, want 2", vars["sceneview_builds"])
	}
}
