package repro

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/router"
)

// promShape reduces a /metrics exposition to what a dashboard depends on:
// the "# TYPE" lines and the sample names in exposition order, values
// dropped, label values blanked and repeats of one family folded.
func promShape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d %v", resp.StatusCode, err)
	}
	label := regexp.MustCompile(`="[^"]*"`)
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			line = label.ReplaceAllString(line[:strings.LastIndexByte(line, ' ')], "")
		}
		if len(out) == 0 || out[len(out)-1] != line {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// The two goldens below were recorded at PR 18's commit, one metrics model
// ago. The intended differences since: dl_node_healthy, which read
// "dl_node_healthy_total counter" there, and the memory gauges
// dl_heap_live_bytes (node and router), dl_segments_hydrated and
// dl_mapped_bytes (node).
const (
	nodeMetricsShape = `# TYPE dl_active_segments gauge
dl_active_segments
# TYPE dl_cache_deepens_total counter
dl_cache_deepens_total
# TYPE dl_cache_entries gauge
dl_cache_entries
# TYPE dl_cache_hits gauge
dl_cache_hits
# TYPE dl_cache_items gauge
dl_cache_items
# TYPE dl_cache_misses gauge
dl_cache_misses
# TYPE dl_commits_total counter
dl_commits_total
# TYPE dl_compactions_total counter
dl_compactions_total
# TYPE dl_generation gauge
dl_generation
# TYPE dl_heap_live_bytes gauge
dl_heap_live_bytes
# TYPE dl_mapped_bytes gauge
dl_mapped_bytes
# TYPE dl_partials_total counter
dl_partials_total
# TYPE dl_queries_total counter
dl_queries_total
# TYPE dl_queries_hybrid_total counter
dl_queries_hybrid_total
# TYPE dl_queries_lexical_total counter
dl_queries_lexical_total
# TYPE dl_queries_vector_total counter
dl_queries_vector_total
# TYPE dl_sceneview_builds_total counter
dl_sceneview_builds_total
# TYPE dl_segments_hydrated gauge
dl_segments_hydrated
# TYPE dl_snapshot gauge
dl_snapshot
# TYPE dl_uptime_sec gauge
dl_uptime_sec
# TYPE dl_wal_commit_durable_ops_total counter
dl_wal_commit_durable_ops_total
# TYPE dl_wal_commit_durable_seconds gauge
dl_wal_commit_durable_seconds
# TYPE dl_wal_duplicate_commits_total counter
dl_wal_duplicate_commits_total
# TYPE dl_wal_last_checkpoint_gen gauge
dl_wal_last_checkpoint_gen
# TYPE dl_wal_records_total counter
dl_wal_records_total
# TYPE dl_wal_recovered_total counter
dl_wal_recovered_total`
	routerMetricsShape = `# TYPE dl_heap_live_bytes gauge
dl_heap_live_bytes
# TYPE dl_node_healthy gauge
dl_node_healthy{node}
# TYPE dl_node_requests_total counter
dl_node_requests_total{node}
# TYPE dl_nodes gauge
dl_nodes
# TYPE dl_queries_hybrid_total counter
dl_queries_hybrid_total
# TYPE dl_queries_lexical_total counter
dl_queries_lexical_total
# TYPE dl_queries_vector_total counter
dl_queries_vector_total
# TYPE dl_router_failovers_total counter
dl_router_failovers_total
# TYPE dl_router_failures_total counter
dl_router_failures_total
# TYPE dl_router_hedge_wins_total counter
dl_router_hedge_wins_total
# TYPE dl_router_hedges_total counter
dl_router_hedges_total
# TYPE dl_router_partial_answers_total counter
dl_router_partial_answers_total
# TYPE dl_router_proxied_total counter
dl_router_proxied_total
# TYPE dl_router_queries_total counter
dl_router_queries_total
# TYPE dl_router_scatters_total counter
dl_router_scatters_total
# TYPE dl_router_stale_retries_total counter
dl_router_stale_retries_total`
)

// TestMetricsShapeGolden pins the names and types on /metrics of a
// WAL-attached node and of a two-node router after one keyword, one hybrid
// and one proxied query.
func TestMetricsShapeGolden(t *testing.T) {
	site := v2Site(t)
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	dl, err := NewDigitalLibrary(site, v2Library(t, site, 0))
	if err != nil {
		t.Fatal(err)
	}
	dl.AttachWAL(w)
	var urls []string
	for i := 0; i < 2; i++ {
		srv := NewServer(dl, ServerOptions{})
		w.RegisterMetrics(srv.Metrics())
		ts := httptest.NewServer(srv)
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	// No hedging: whether a hedge leg fires (and its family appears) would
	// depend on timing.
	r, err := router.New(urls, router.Options{HedgeAfter: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(r)
	defer rts.Close()
	for _, q := range []string{"kw=champion", "kw=champion&kind=hybrid", "q=find+Player+limit+2"} {
		var page struct{}
		if err := getJSON(rts.URL+"/v2/search?"+q, &page); err != nil {
			t.Fatal(err)
		}
	}
	if got := promShape(t, urls[0]); got != nodeMetricsShape {
		t.Errorf("node /metrics shape:\n%s\nwant:\n%s", got, nodeMetricsShape)
	}
	if got := promShape(t, rts.URL); got != routerMetricsShape {
		t.Errorf("router /metrics shape:\n%s\nwant:\n%s", got, routerMetricsShape)
	}
}
