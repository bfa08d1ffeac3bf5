package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns is the connection budget of the load generator: one process, at
// most as many connections as the sandbox has cores.
const maxConns = 2

// sampleEvery is how often a search response is kept for the item-by-item
// comparison against the in-process oracle. It is prime, so that it shares no
// factor with the length of a stream that cycles (the ingest-commit reader's
// 64-query slice): the kept ops then walk through every query of the cycle.
const sampleEvery = 61

// searchResp is what every /v2/search response is checked for.
type searchResp struct {
	Count  int               `json:"count"`
	Total  int               `json:"total"`
	Cached bool              `json:"cached"`
	Items  []json.RawMessage `json:"items"`
}

// kept is a sampled response awaiting comparison with the oracle.
type kept struct {
	op   op
	body []byte
}

// loadgen is the single load-generating process: it issues requests over
// keep-alive connections, times them, checks every response, and counts
// attempts and failures.
type loadgen struct {
	http *http.Client
	base string // base URL of the system under test

	attempted, failed atomic.Int64
	completed         atomic.Int64 // search ops finished, for phase marks
	cacheHits         atomic.Int64 // responses that reported cached:true
	next              atomic.Int64 // index of the next op of the stream
	growing           bool         // scene-lookup totals may grow (commits land)

	mu       sync.Mutex
	failures []string    // first few failure descriptions
	totals   map[int]int // first total seen per pool query
	sampled  []kept      // every sampleEvery-th response
}

func newLoadgen() *loadgen {
	return &loadgen{
		http: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns,
				DisableCompression: true,
			},
		},
		totals: map[int]int{},
	}
}

// fail records one failed operation.
func (g *loadgen) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.failLocked(format, args...)
}

func (g *loadgen) failLocked(format string, args ...any) {
	g.failed.Add(1)
	if len(g.failures) < 8 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

// get issues one GET and returns status and body; a transport error is a
// failed operation.
func (g *loadgen) get(url string) (int, []byte, bool) {
	g.attempted.Add(1)
	resp, err := g.http.Get(url)
	if err != nil {
		g.fail("GET %s: %v", url, err)
		return 0, nil, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		g.fail("GET %s: reading body: %v", url, err)
		return 0, nil, false
	}
	return resp.StatusCode, body, true
}

// search issues op i of a stream, checks the response, and returns its
// latency in milliseconds and its class: the op's lane, or for a pooled query
// whether the result cache answered it (ok false when the operation failed).
func (g *loadgen) search(i int, o op) (ms float64, class int, ok bool) {
	url := g.base + "/v2/search?" + o.query
	class = o.class
	t0 := time.Now()
	status, body, ok := g.get(url)
	ms = float64(time.Since(t0)) / float64(time.Millisecond)
	g.completed.Add(1)
	if !ok {
		return ms, class, false
	}
	if status != http.StatusOK {
		g.fail("GET %s: status %d: %s", url, status, bytes.TrimSpace(body))
		return ms, class, false
	}
	var r searchResp
	if err := json.Unmarshal(body, &r); err != nil {
		g.fail("GET %s: bad JSON: %v", url, err)
		return ms, class, false
	}
	if r.Count != len(r.Items) || r.Count > r.Total {
		g.fail("GET %s: count %d, %d items, total %d", url, r.Count, len(r.Items), r.Total)
		return ms, class, false
	}
	if r.Cached {
		g.cacheHits.Add(1)
	}
	if o.pool >= 0 {
		class = classMiss
		if r.Cached {
			class = classHit
		}
	}
	if o.pool < 0 && i%sampleEvery != 0 {
		return ms, class, true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if o.pool >= 0 {
		switch want, seen := g.totals[o.pool]; {
		case !seen, g.growing && strings.HasPrefix(o.query, "kind=") && r.Total >= want:
			g.totals[o.pool] = r.Total
		case r.Total != want:
			g.failLocked("GET %s: total %d, earlier answer had %d", url, r.Total, want)
			return ms, class, false
		}
	}
	if i%sampleEvery == 0 {
		g.sampled = append(g.sampled, kept{op: o, body: body})
	}
	return ms, class, true
}

// warm runs a fixed number of ops on one connection, untimed: caches fill
// and lazy set-up finishes before any window opens.
func (g *loadgen) warm(st stream, ops int) {
	for n := 0; n < ops; n++ {
		i := int(g.next.Add(1) - 1)
		g.search(i, st.at(i))
	}
}

// phase runs a closed loop of `clients` connections over the stream for the
// given time: a client sends its next request only when the previous reply
// has arrived, after an optional think time. cpu reads the servers' CPU clock.
func (g *loadgen) phase(st stream, clients int, length time.Duration, cpu func() float64, think time.Duration) phaseStats {
	var stop atomic.Bool
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				i := int(g.next.Add(1) - 1)
				ms, class, _ := g.search(i, st.at(i))
				per[c] = append(per[c], sample{done: time.Now(), ms: ms, class: class})
				if think > 0 {
					time.Sleep(think)
				}
			}
		}(c)
	}
	from := mark{at: time.Now(), cpuMs: cpu()}
	time.Sleep(length)
	to := mark{at: time.Now(), cpuMs: cpu()}
	stop.Store(true)
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return statsOf(from, to, all, st.weights())
}
