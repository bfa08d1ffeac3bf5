package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced call into a layer's exported function: which call,
// when, caused by which span, on behalf of which request. Times are
// nanoseconds since the tracer started.
//
// The program under test has no spans inside it yet, so a call made by the
// program itself (Server.Search calling Engine.SearchAll, say) cannot be
// bracketed where it happens. The harness instead repeats that call, with
// the same arguments, once the section's requests are done, and records it
// as a Replica child: its duration stands for the time the parent spent in
// it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1: a request's root span
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Start   int64  `json:"startNs"`
	End     int64  `json:"endNs"`
	Replica bool   `json:"replica,omitempty"`
}

// tracer records spans in memory. The traced run is single-threaded, so the
// open-span stack names each new span's parent.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// nextRequest starts a new request: spans begun from now on carry its id.
func (t *tracer) nextRequest() { t.req++ }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name})
	t.stack = append(t.stack, id)
	t.spans[id].Start = t.now()
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// in runs fn inside a span and returns the span's id.
func (t *tracer) in(name string, fn func()) int {
	id := t.begin(name)
	fn()
	t.end(id)
	return id
}

// replica runs fn as a Replica child of parent (which has already ended);
// spans begun inside fn nest under it in the ordinary way.
func (t *tracer) replica(parent int, name string, fn func()) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Replica: true})
	t.stack = append(t.stack, id)
	t.spans[id].Start = t.now()
	fn()
	t.end(id)
	return id
}

// add records a finished child of parent from times taken elsewhere — the
// concurrent legs of a router scatter, timed on their own goroutines.
func (t *tracer) add(parent int, name string, start, end int64) {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: t.req, Name: name, Start: start, End: end})
}

// rename gives a span the name that was only known once it had ended (a
// cache hit or a miss).
func (t *tracer) rename(id int, name string) { t.spans[id].Name = name }

// spanTimes holds, per span name, every span's duration and self time in
// microseconds.
type spanTimes struct {
	total, self map[string][]float64
}

// timesOf computes durations and self times. A span's self time is its
// duration minus the part of it its children cover: for ordinary children
// the union of their intervals (concurrent children overlap), for Replica
// children, which ran after the parent had ended, their summed durations.
func timesOf(spans []span) spanTimes {
	type iv struct{ start, end int64 }
	kids := make([][]iv, len(spans))
	covered := make([]int64, len(spans))
	for _, s := range spans {
		switch {
		case s.Parent < 0:
		case s.Replica:
			covered[s.Parent] += s.End - s.Start
		default:
			p := spans[s.Parent]
			kids[s.Parent] = append(kids[s.Parent], iv{max(s.Start, p.Start), min(s.End, p.End)})
		}
	}
	for i, ivs := range kids {
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
		var upTo int64
		for k, v := range ivs {
			if k == 0 || v.start > upTo {
				upTo = v.start
			}
			if v.end > upTo {
				covered[i] += v.end - upTo
				upTo = v.end
			}
		}
	}
	st := spanTimes{total: map[string][]float64{}, self: map[string][]float64{}}
	for i, s := range spans {
		d := s.End - s.Start
		st.total[s.Name] = append(st.total[s.Name], float64(d)/1e3)
		st.self[s.Name] = append(st.self[s.Name], float64(d-covered[i])/1e3)
	}
	return st
}

// writeSpans dumps the spans as JSON, for inspection after the run.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
