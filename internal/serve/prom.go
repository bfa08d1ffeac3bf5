package serve

// The metrics registry: typed counters and gauges registered by name once,
// rendered on /metrics as Prometheus text exposition (version 0.0.4, no
// client library) and on /debug/vars as one JSON object. A counter renders
// as dl_<name>_total, a gauge as dl_<name>, and a one-label family as
// one sample per label value — how per-node router counters come out as
// dl_node_requests_total{node="http://..."}. Metrics render sorted by name
// and a family's samples by label value, so both forms are deterministic.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotone count, safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterFamily is a set of counts told apart by one label. A label value
// has no sample until its first Add.
type CounterFamily struct {
	mu     sync.Mutex
	counts map[string]int64
}

// Add increments the count of one label value.
func (f *CounterFamily) Add(labelValue string, delta int64) {
	f.mu.Lock()
	f.counts[labelValue] += delta
	f.mu.Unlock()
}

// values reads every label value's count.
func (f *CounterFamily) values() map[string]float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]float64, len(f.counts))
	for lv, n := range f.counts {
		out[lv] = float64(n)
	}
	return out
}

// metric is one registered name, read as label value → sample: a family
// under its label, or a scalar (label "") as the one sample keyed "".
type metric struct {
	name    string
	counter bool
	label   string
	read    func() map[string]float64
}

// Registry holds the metrics of one server or router. It is per-instance,
// not process-global, so many servers coexist in one process.
type Registry struct {
	mu      sync.Mutex
	metrics []metric // sorted by name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return new(Registry) }

// register files a metric under its name. Names are fixed at wiring time, so
// a repeat is a bug.
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, found := slices.BinarySearchFunc(r.metrics, m.name, func(e metric, name string) int {
		return strings.Compare(e.name, name)
	})
	if found {
		panic("serve: metric " + m.name + " registered twice")
	}
	r.metrics = slices.Insert(r.metrics, i, m)
}

// snapshot returns the metrics in name order.
func (r *Registry) snapshot() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.metrics)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name string) *Counter {
	c := new(Counter)
	r.CounterFunc(name, c.Value)
	return c
}

// CounterFunc registers a counter whose count lives elsewhere (the
// process's scene-view builds, the WAL's records); f must be monotone.
func (r *Registry) CounterFunc(name string, f func() int64) {
	r.register(metric{name: name, counter: true, read: func() map[string]float64 {
		return map[string]float64{"": float64(f())}
	}})
}

// GaugeFunc registers a gauge read at scrape time.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	r.register(metric{name: name, read: func() map[string]float64 { return map[string]float64{"": f()} }})
}

// CounterFamily registers and returns a counter family with the given label.
func (r *Registry) CounterFamily(name, label string) *CounterFamily {
	f := &CounterFamily{counts: map[string]int64{}}
	r.register(metric{name: name, counter: true, label: label, read: f.values})
	return f
}

// GaugeFamilyFunc registers a gauge family read at scrape time as label
// value → sample.
func (r *Registry) GaugeFamilyFunc(name, label string, f func() map[string]float64) {
	r.register(metric{name: name, label: label, read: f})
}

// HeapLiveBytes reads the heap the last garbage collection left live (0
// before the first): the process's index and serving state, without the
// garbage a cycle has yet to collect. It reads runtime/metrics, which,
// unlike runtime.ReadMemStats, does not stop the world on every scrape.
func HeapLiveBytes() float64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s[:])
	return float64(s[0].Value.Uint64())
}

// promLabel escapes a label value per the exposition format.
var promLabel = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// WriteProm renders the registry in Prometheus text exposition format: one
// "# TYPE" line per metric that has samples, then its samples sorted by
// label value. Integral values print without an exponent so counters read
// naturally.
func (r *Registry) WriteProm(w io.Writer) {
	for _, m := range r.snapshot() {
		name, typ := "dl_"+m.name, "gauge"
		if m.counter {
			name, typ = name+"_total", "counter"
		}
		samples := m.read()
		labelValues := make([]string, 0, len(samples))
		for lv := range samples {
			labelValues = append(labelValues, lv)
		}
		slices.Sort(labelValues)
		for i, lv := range labelValues {
			if i == 0 {
				fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
			}
			labels := ""
			if m.label != "" {
				labels = fmt.Sprintf(`{%s="%s"}`, m.label, promLabel.Replace(lv))
			}
			if v := samples[lv]; v == float64(int64(v)) {
				fmt.Fprintf(w, "%s%s %d\n", name, labels, int64(v))
			} else {
				fmt.Fprintf(w, "%s%s %g\n", name, labels, v)
			}
		}
	}
}

// WriteJSON renders the registry as one JSON object, name → number, a family
// as a nested object keyed by label value.
func (r *Registry) WriteJSON(w io.Writer) {
	vars := map[string]any{}
	for _, m := range r.snapshot() {
		if samples := m.read(); m.label != "" {
			vars[m.name] = samples
		} else {
			vars[m.name] = samples[""]
		}
	}
	_ = json.NewEncoder(w).Encode(vars)
}

// HandleProm answers GET /metrics.
func (r *Registry) HandleProm(w http.ResponseWriter, req *http.Request) {
	if !OnlyMethod(w, req, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WriteProm(w)
}

// HandleJSON answers GET /debug/vars: the same metrics, for scripts and
// debuggers that want JSON.
func (r *Registry) HandleJSON(w http.ResponseWriter, req *http.Request) {
	if !OnlyMethod(w, req, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	r.WriteJSON(w)
}
