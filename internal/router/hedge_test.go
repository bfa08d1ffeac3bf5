package router

// Failure-mode tests with fault-injecting segment sources: hedged reads
// cutting slow-node tail latency, failover keeping answers byte-identical
// with a dead replica, and the fail-open/fail-closed choice when every
// replica of a segment is down.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dlse"
	"repro/internal/serve"
	"repro/internal/transport"
)

// fakeSource wraps a Local source with an injectable address, response
// delay, and hard failure — the knobs the failure-mode tests turn.
type fakeSource struct {
	inner *transport.Local
	addr  string
	delay time.Duration
	fail  atomic.Bool
}

func (f *fakeSource) Addr() string { return f.addr }

func (f *fakeSource) Manifest(ctx context.Context) (transport.Manifest, error) {
	if f.fail.Load() {
		return transport.Manifest{}, fmt.Errorf("%w: node %s is down", transport.ErrUnavailable, f.addr)
	}
	return f.inner.Manifest(ctx)
}

func (f *fakeSource) Health(ctx context.Context) error {
	if f.fail.Load() {
		return fmt.Errorf("%w: node %s is down", transport.ErrUnavailable, f.addr)
	}
	return f.inner.Health(ctx)
}

func (f *fakeSource) Partial(ctx context.Context, q transport.Query, sel transport.Sel, expectGen int64) (*transport.Partial, error) {
	if f.fail.Load() {
		return nil, fmt.Errorf("%w: node %s is down", transport.ErrUnavailable, f.addr)
	}
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %v", transport.ErrUnavailable, ctx.Err())
		}
	}
	return f.inner.Partial(ctx, q, sel, expectGen)
}

// fakeCluster builds n fake sources over one shared engine. Addresses sort
// in index order, so fakes[0] is placement's node 0.
func fakeCluster(t *testing.T, n int) []*fakeSource {
	t.Helper()
	e := buildEngine(t)
	local := transport.NewLocal(func() *dlse.Engine { return e })
	fakes := make([]*fakeSource, n)
	for i := range fakes {
		fakes[i] = &fakeSource{inner: local, addr: fmt.Sprintf("node-%d", i)}
	}
	return fakes
}

func srcs(fakes []*fakeSource) []transport.SegmentSource {
	out := make([]transport.SegmentSource, len(fakes))
	for i, f := range fakes {
		out[i] = f
	}
	return out
}

// answer returns the distributed answer's item list for a scene query.
func answer(t *testing.T, r *Router, kind string) (*dlse.ResultSet, bool) {
	t.Helper()
	rs, partial, err := r.Search(context.Background(), dlse.Query{Scenes: kind}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	return rs, partial
}

// TestHedgeCutsTailLatency injects a 500ms delay into every node's primary
// role and hedges after 10ms: the answer must arrive from the raced
// replicas well before the slow legs would have, and be correct.
func TestHedgeCutsTailLatency(t *testing.T) {
	fakes := fakeCluster(t, 2)
	const slow = 500 * time.Millisecond
	fakes[0].delay = slow // primary for ordinal 0's group

	r, err := NewWithSources(srcs(fakes), Options{Replicas: 2, HedgeAfter: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := answer(t, r, "net-play") // warm reference (hedged too, same answer)

	start := time.Now()
	got, partial := answer(t, r, "net-play")
	elapsed := time.Since(start)
	if partial {
		t.Fatal("hedged answer marked partial")
	}
	if !reflect.DeepEqual(itemsOf(got), itemsOf(want)) {
		t.Fatal("hedged answer diverges")
	}
	// Generous margin: the hedge fires at 10ms; anywhere near the
	// injected 500ms means the hedge never won.
	if elapsed > slow/2 {
		t.Fatalf("hedge did not cut tail latency: %v elapsed", elapsed)
	}
	if r.hedges.Value() == 0 || r.hedgeWins.Value() == 0 {
		t.Fatalf("hedge counters off: hedges=%d wins=%d", r.hedges.Value(), r.hedgeWins.Value())
	}
}

// TestFailoverDeadReplica kills one node in a replicas=2 cluster: every
// segment still has a live replica, so answers stay byte-identical and the
// failover is counted.
func TestFailoverDeadReplica(t *testing.T) {
	fakes := fakeCluster(t, 3)
	r, err := NewWithSources(srcs(fakes), Options{Replicas: 2, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := answer(t, r, "net-play")

	fakes[1].fail.Store(true)
	got, partial := answer(t, r, "net-play")
	if partial {
		t.Fatal("failover answer marked partial")
	}
	if !reflect.DeepEqual(itemsOf(got), itemsOf(want)) {
		t.Fatal("answer diverged after killing one replica")
	}
	if r.failovers.Value() == 0 {
		t.Fatal("failover not counted")
	}
	// The dead node's health mark dropped, so the next plan avoids it:
	// no further failovers accumulate once placement has adapted.
	before := r.failovers.Value()
	if got2, _ := answer(t, r, "net-play"); !reflect.DeepEqual(itemsOf(got2), itemsOf(want)) {
		t.Fatal("answer diverged on adapted placement")
	}
	if r.failovers.Value() != before {
		t.Fatalf("adapted placement still failing over: %d -> %d", before, r.failovers.Value())
	}

	// Recovery: the node comes back, a health probe clears the mark.
	fakes[1].fail.Store(false)
	if healthy := r.CheckHealth(context.Background()); healthy != 3 {
		t.Fatalf("healthy after recovery = %d, want 3", healthy)
	}
}

// TestFailOpenVersusClosed kills one node in a replicas=1 cluster — its
// segments have no replica. Fail-closed reports unavailable; fail-open
// serves the reachable subset marked partial, a strict subset of the full
// answer.
func TestFailOpenVersusClosed(t *testing.T) {
	kw := dlse.Query{Keyword: "australian open final"}

	// Fail-closed (default): the query errors.
	fakes := fakeCluster(t, 3)
	closed, err := NewWithSources(srcs(fakes), Options{Replicas: 1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := closed.Search(context.Background(), kw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	fakes[0].fail.Store(true)
	if _, _, err := closed.Search(context.Background(), kw, "", 0); !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("fail-closed err = %v, want ErrUnavailable", err)
	}

	// Fail-open: same cluster shape, reachable subset served and marked.
	fakes2 := fakeCluster(t, 3)
	open, err := NewWithSources(srcs(fakes2), Options{Replicas: 1, HedgeAfter: -1, FailOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	fakes2[0].fail.Store(true)
	rs, partial, err := open.Search(context.Background(), kw, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !partial {
		t.Fatal("fail-open answer not marked partial")
	}
	if len(rs.Items) >= full.Total {
		t.Fatalf("fail-open answer not a strict subset: %d vs full %d", len(rs.Items), full.Total)
	}
	scored := map[string]float64{}
	for _, it := range full.Items {
		scored[it.Page] = it.Score
	}
	for _, it := range rs.Items {
		if s, ok := scored[it.Page]; !ok || s != it.Score {
			t.Fatalf("fail-open item %q/%v not in the full answer", it.Page, it.Score)
		}
	}
	if open.partials.Value() == 0 {
		t.Fatal("partial answer not counted")
	}

	// Semantic errors never fail open: a bad query is a 400-class error
	// even with a node down, not an empty partial answer.
	if _, _, err := open.Search(context.Background(), dlse.Query{Keyword: "the of and"}, "", 0); err == nil || errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("semantic error leaked through fail-open: %v", err)
	}

	// A fail-open hybrid page is FuseRRF over the reachable legs' full
	// rankings: its rank legs count over exactly the ordinals whose round-1
	// legs answered. Node 0 is the only candidate of text ordinal 0 and
	// video ordinal 0; the site's pages outnumber a page's 2d+60
	// candidates, so the vector lane's round-1 list stops short and its rank
	// leg runs.
	e := buildEngineOf(t, 200)
	local := transport.NewLocal(func() *dlse.Engine { return e })
	fakes3 := []*fakeSource{{inner: local, addr: "node-0"}, {inner: local, addr: "node-1"}, {inner: local, addr: "node-2"}}
	hybridOpen, err := NewWithSources(srcs(fakes3), Options{Replicas: 1, HedgeAfter: -1, FailOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	fakes3[0].fail.Store(true)
	const text = "australian open final player"
	reachable := transport.Sel{Text: []int{1, 2}, Video: []int{1}}
	var lanes [][]dlse.Item
	for _, q := range []transport.Query{{Keyword: text}, {Vector: text}} {
		sel := reachable
		if q.Keyword != "" {
			sel.Video = nil
		}
		p, err := local.Partial(context.Background(), q, sel, -1)
		if err != nil {
			t.Fatal(err)
		}
		items, _ := hitItems([]*transport.Partial{p}, 0)
		lanes = append(lanes, items)
	}
	want := dlse.FuseRRF(lanes...)
	cursor := dlse.Cursor("")
	for offset := 0; offset < 30; offset += 10 {
		got, partial, err := hybridOpen.Search(context.Background(), dlse.Query{Hybrid: text}, cursor, 10)
		if err != nil || !partial {
			t.Fatalf("fail-open hybrid at %d: err %v, partial %t", offset, err, partial)
		}
		if !reflect.DeepEqual(got.Items, want[offset:offset+10]) || got.Total != len(want) {
			t.Fatalf("fail-open hybrid at %d diverges from FuseRRF over the reachable legs (total %d, want %d)",
				offset, got.Total, len(want))
		}
		cursor = got.Cursor
	}
}

// bumpingSource is a Local source over a swappable engine that installs the
// next generation right before it answers the first rank-lookup leg it is
// sent — a commit landing between a hybrid query's two rounds.
type bumpingSource struct {
	*transport.Local
	addr string
	bump func()
}

func (s *bumpingSource) Addr() string { return s.addr }

func (s *bumpingSource) Partial(ctx context.Context, q transport.Query, sel transport.Sel, gen int64) (*transport.Partial, error) {
	if q.Ranks != nil {
		s.bump()
	}
	return s.Local.Partial(ctx, q, sel, gen)
}

// TestHybridCommitBetweenRounds: a commit that lands after a hybrid query's
// round-1 legs and before its rank legs makes those stale, so the router
// re-plans against the new manifest instead of fusing lanes from two
// segment sets. A commit moves no ranked answer, so the re-planned answer
// is the single node's, before the commit and after it.
func TestHybridCommitBetweenRounds(t *testing.T) {
	ctx := context.Background()
	pre := buildEngineOf(t, 200)
	post := commitEngine(t, pre)
	var cur atomic.Pointer[dlse.Engine]
	cur.Store(pre)
	local := transport.NewLocal(cur.Load)
	var once sync.Once
	bump := func() { once.Do(func() { cur.Store(post) }) }
	r, err := NewWithSources([]transport.SegmentSource{
		&bumpingSource{Local: local, addr: "node-0", bump: bump},
		&bumpingSource{Local: local, addr: "node-1", bump: bump},
	}, Options{Replicas: 2, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	q := dlse.Query{Hybrid: "australian open final player"}
	got, partial, err := r.Search(ctx, q, "", 10)
	if err != nil || partial {
		t.Fatalf("err %v, partial %t", err, partial)
	}
	if cur.Load() != post || r.staleRe.Value() == 0 {
		t.Fatalf("commit installed %t, stale re-plans %d", cur.Load() == post, r.staleRe.Value())
	}
	for _, e := range []*dlse.Engine{pre, post} {
		want, err := e.Search(ctx, q, dlse.WithLimit(10))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Items, want.Items) || got.Total != want.Total {
			t.Fatalf("answer (total %d) is not the node's (total %d)", got.Total, want.Total)
		}
	}
}

func itemsOf(rs *dlse.ResultSet) []dlse.Item {
	out := make([]dlse.Item, len(rs.Items))
	copy(out, rs.Items)
	return out
}

// faultyNodes starts two HTTP nodes over one engine and returns their URLs
// sorted — placement order — with fault wrapped around the handler of the
// one at index faulty.
func faultyNodes(t *testing.T, faulty int, fault func(next http.Handler) http.Handler) []string {
	t.Helper()
	e := buildEngine(t)
	var host atomic.Value // the faulty node's host, set once both listen
	urls := make([]string, 2)
	for i := range urls {
		node := http.Handler(serve.New(e, serve.Options{}))
		broken := fault(node)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.Host == host.Load() {
				broken.ServeHTTP(w, req)
				return
			}
			node.ServeHTTP(w, req)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	sort.Strings(urls)
	host.Store(strings.TrimPrefix(urls[faulty], "http://"))
	return urls
}

// TestFailoverOnUnavailableEnvelope: a node that answers its legs with the v2
// surface's 503 "unavailable" envelope (worker-slot wait cancelled, draining)
// could not answer — its legs move to the replica, the answer is the healthy
// cluster's, and the failover is counted.
func TestFailoverOnUnavailableEnvelope(t *testing.T) {
	urls := faultyNodes(t, 0, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/v2/partial" {
				serve.WriteSearchError(w, fmt.Errorf("%w: draining", transport.ErrUnavailable))
				return
			}
			next.ServeHTTP(w, req)
		})
	})
	r, err := New(urls, Options{Replicas: 2, HedgeAfter: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(r)
	defer router.Close()
	const query = "kw=australian+open+final"
	want, _, _ := getSearch(t, urls[1], query)
	got, _, status := getSearch(t, router.URL, query)
	if status != http.StatusOK || want.Total == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("status %d, %d items of %d; the healthy node answers %d of %d",
			status, got.Count, got.Total, want.Count, want.Total)
	}
	if r.failovers.Value() == 0 { // what /metrics exports as dl_router_failovers_total
		t.Fatal("failover not counted")
	}
}

// countingTransport counts the requests sent through it.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(req)
}

// TestProxyTimeoutFailsOver: a proxied query (q=) sent to a node that never
// writes a response is given up after Options.Timeout and answered by the
// next node — through the client the router was built with. The hung node
// is the one the query's key starts at.
func TestProxyTimeoutFailsOver(t *testing.T) {
	const source = "find Player limit 3"
	hung := keyNode(source, 2)
	release := make(chan struct{})
	defer close(release) // lets the hung handlers return so the nodes can close
	urls := faultyNodes(t, hung, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/v2/search" {
				<-release
				return
			}
			next.ServeHTTP(w, req)
		})
	})
	via := &countingTransport{}
	r, err := New(urls, Options{Timeout: 100 * time.Millisecond}, &http.Client{Transport: via})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(r)
	defer router.Close()
	query := "q=" + url.QueryEscape(source)
	want, _, _ := getSearch(t, urls[1-hung], query)
	start := time.Now()
	got, _, status := getSearch(t, router.URL, query)
	if status != http.StatusOK || want.Count != 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("status %d, %d items; the healthy node answers %d", status, got.Count, want.Count)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("proxied query took %v with a 100ms node timeout", elapsed)
	}
	if via.n.Load() != 2 || r.nodes[hung].healthy.Load() {
		t.Fatalf("%d requests through the router's client (want 2: the hung node, then its neighbour), hung node healthy=%v",
			via.n.Load(), r.nodes[hung].healthy.Load())
	}
}

// TestProxyTriesEachNodeOnce: with every node hung, a proxied query tries
// each node once — one Options.Timeout apiece, the first pass marking them
// down is not followed by a second — and answers 503.
func TestProxyTriesEachNodeOnce(t *testing.T) {
	release := make(chan struct{})
	urls := make([]string, 2)
	for i := range urls {
		ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	defer close(release) // runs before the Cleanups close the nodes
	via := &countingTransport{}
	r, err := New(urls, Options{Timeout: 100 * time.Millisecond}, &http.Client{Transport: via})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(r)
	defer router.Close()
	if _, _, status := getSearch(t, router.URL, "q=find+Player+limit+3"); status != http.StatusServiceUnavailable || via.n.Load() != 2 {
		t.Fatalf("status %d after %d requests through the router's client, want 503 after 2", status, via.n.Load())
	}
}

// TestProxyKeyAffinity: a proxied query starts at its key's node, so
// distinct queries spread over the nodes, and a page's cursor follow-up —
// the cursor is not part of the key — reaches the node its first page did.
func TestProxyKeyAffinity(t *testing.T) {
	e := buildEngine(t)
	var hits [2]atomic.Int64 // /v2/search requests per node, in placement order
	urls := make([]string, 2)
	for i := range urls {
		node := serve.New(e, serve.Options{})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/v2/search" {
				hits[sort.SearchStrings(urls, "http://"+req.Host)].Add(1)
			}
			node.ServeHTTP(w, req)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	sort.Strings(urls)
	r, err := New(urls, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(r)
	defer router.Close()
	reached := [2]bool{}
	// hit sends one request through the router and returns the node that
	// answered it, with the cursor of its page.
	hit := func(query string) (int, string) {
		before := [2]int64{hits[0].Load(), hits[1].Load()}
		_, cursor, status := getSearch(t, router.URL, query)
		moved := [2]bool{hits[0].Load() != before[0], hits[1].Load() != before[1]}
		if status != http.StatusOK || moved[0] == moved[1] {
			t.Fatalf("%s: status %d, reached nodes %v; want exactly one", query, status, moved)
		}
		if moved[0] {
			return 0, cursor
		}
		return 1, cursor
	}
	for k := 3; k <= 10; k++ {
		query := "q=" + url.QueryEscape(fmt.Sprintf("find Player limit %d", k)) + "&limit=2"
		first, cursor := hit(query)
		if cursor == "" {
			t.Fatalf("%s: page 1 has no cursor", query)
		}
		if next, _ := hit(query + "&cursor=" + url.QueryEscape(cursor)); next != first {
			t.Fatalf("%s: page 1 from node %d, its follow-up from node %d", query, first, next)
		}
		reached[first] = true
	}
	if !reached[0] || !reached[1] {
		t.Fatalf("distinct proxied queries reached nodes %v; want both", reached)
	}
}
