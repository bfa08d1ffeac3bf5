package serve

// Tests of the Prometheus text exposition at /metrics.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestMetricsPrometheusFormat(t *testing.T) {
	e, _ := fixture(t)
	ts := httptest.NewServer(New(e, Options{}))
	defer ts.Close()

	// Count a query first so dl_queries_total is non-zero.
	resp, err := http.Get(ts.URL + "/v2/search?kind=net-play")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	runtime.GC() // the live heap is measured by a collection
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE dl_queries_total counter",
		"dl_queries_total 1",
		"# TYPE dl_commits_total counter",
		"# TYPE dl_partials_total counter",
		"# TYPE dl_compactions_total counter",
		"# TYPE dl_active_segments gauge",
		"dl_active_segments 1",
		"# TYPE dl_segments_hydrated gauge",
		"dl_segments_hydrated 1",
		"# TYPE dl_heap_live_bytes gauge",
		"# TYPE dl_generation gauge",
		"# TYPE dl_snapshot gauge",
		"# TYPE dl_uptime_sec gauge",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	// The heap gauge reads the live heap, which holds at least the engine.
	var heap float64
	if _, err := fmt.Sscanf(body[strings.Index(body, "\ndl_heap_live_bytes ")+1:], "dl_heap_live_bytes %g", &heap); err != nil || heap <= 0 {
		t.Fatalf("dl_heap_live_bytes = %v (%v)", heap, err)
	}
	// No JSON leaked in.
	if strings.Contains(body, "{\"") {
		t.Fatalf("exposition contains JSON:\n%s", body)
	}
}

// TestRegistryExposition locks the rendering per-node router counters rely
// on: metrics sorted by name, one "# TYPE" line per family, one labeled
// sample per label value (escaped, sorted), counters suffixed _total,
// integral values without an exponent, an empty family silent.
func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("scatters").Add(8)
	reqs := reg.CounterFamily("node_requests", "node")
	reqs.Add("http://node-b:2", 5)
	reqs.Add("http://node-a:1", 3)
	reqs.Add(`odd"name\`+"\n", 1)
	reg.CounterFamily("node_errors", "node")
	reg.GaugeFamilyFunc("node_healthy", "node", func() map[string]float64 {
		return map[string]float64{"http://node-a:1": 1, "http://node-b:2": 0}
	})
	reg.CounterFunc("big", func() int64 { return 12345678901234 })
	reg.GaugeFunc("ratio", func() float64 { return 0.25 })

	const want = `# TYPE dl_big_total counter
dl_big_total 12345678901234
# TYPE dl_node_healthy gauge
dl_node_healthy{node="http://node-a:1"} 1
dl_node_healthy{node="http://node-b:2"} 0
# TYPE dl_node_requests_total counter
dl_node_requests_total{node="http://node-a:1"} 3
dl_node_requests_total{node="http://node-b:2"} 5
dl_node_requests_total{node="odd\"name\\\n"} 1
# TYPE dl_ratio gauge
dl_ratio 0.25
# TYPE dl_scatters_total counter
dl_scatters_total 8
`
	var b strings.Builder
	reg.WriteProm(&b)
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}

	// /debug/vars is the same registry: name → number, a family nested.
	b.Reset()
	reg.WriteJSON(&b)
	var vars struct {
		Scatters float64
		Ratio    float64
		Errors   map[string]float64 `json:"node_errors"`
		Healthy  map[string]float64 `json:"node_healthy"`
	}
	if err := json.Unmarshal([]byte(b.String()), &vars); err != nil {
		t.Fatalf("%v in %s", err, b.String())
	}
	if vars.Scatters != 8 || vars.Ratio != 0.25 || vars.Errors == nil || len(vars.Errors) != 0 ||
		len(vars.Healthy) != 2 || vars.Healthy["http://node-a:1"] != 1 {
		t.Fatalf("/debug/vars shape: %s", b.String())
	}
}

// TestRegistryConcurrentAdds: writers on a counter and a family race two
// scrapers; nothing is lost (run under -race by `make race`).
func TestRegistryConcurrentAdds(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops")
	fam := reg.CounterFamily("node_ops", "node")
	const writers, perWriter = 8, 2000
	var writing, scraping sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < 2; s++ {
		scraping.Add(1)
		go func() {
			defer scraping.Done()
			for {
				select {
				case <-stop:
					return
				default:
					reg.WriteProm(io.Discard)
					reg.WriteJSON(io.Discard)
				}
			}
		}()
	}
	for g := 0; g < writers; g++ {
		writing.Add(1)
		go func(g int) {
			defer writing.Done()
			for i := 0; i < perWriter; i++ {
				c.Add(1)
				fam.Add(fmt.Sprintf("n%d", (g+i)%3), 1)
			}
		}(g)
	}
	writing.Wait()
	close(stop)
	scraping.Wait()
	var b strings.Builder
	reg.WriteJSON(&b)
	var vars struct {
		Ops     float64
		NodeOps map[string]float64 `json:"node_ops"`
	}
	if err := json.Unmarshal([]byte(b.String()), &vars); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, n := range vars.NodeOps {
		sum += n
	}
	if vars.Ops != writers*perWriter || sum != writers*perWriter || len(vars.NodeOps) != 3 {
		t.Fatalf("counter %v, family %v, want %d each over 3 label values", vars.Ops, vars.NodeOps, writers*perWriter)
	}
}

// The profiles are served by DebugHandler alone: the serving mux has no
// /debug/pprof/ path.
func TestProfilesOnlyOnTheDebugHandler(t *testing.T) {
	e, _ := fixture(t)
	for _, c := range []struct {
		name string
		h    http.Handler
		want int
	}{
		{"serving mux", New(e, Options{}), http.StatusNotFound},
		{"debug handler", DebugHandler(), http.StatusOK},
	} {
		ts := httptest.NewServer(c.h)
		resp, err := http.Get(ts.URL + "/debug/pprof/heap")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		ts.Close()
		if resp.StatusCode != c.want || (c.want == http.StatusOK && len(body) == 0) {
			t.Errorf("%s: GET /debug/pprof/heap = %d (%d bytes), want %d", c.name, resp.StatusCode, len(body), c.want)
		}
	}
}
