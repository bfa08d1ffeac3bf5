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
)

func TestSceneViewObservability(t *testing.T) {
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
	// the one build of the first scene query.
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
		"dl_sceneview_builds_total 1",
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
	if got, _ := vars["sceneview_builds"].(float64); got != 1 {
		t.Fatalf("/debug/vars sceneview_builds = %v, want 1", vars["sceneview_builds"])
	}
}
