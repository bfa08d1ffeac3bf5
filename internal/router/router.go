// Package router is the stateless scatter-gather tier of the distributed
// digital library: it fans unified v2 queries over a set of dlserve nodes
// through the transport.SegmentSource interface and merges their partial
// top-K streams under the engine's global (score desc, DocID asc) total
// order, so a cluster answer is byte-identical to a monolithic one.
//
// The cluster model is replicated storage, partitioned compute: every node
// serves the full segment set (all nodes load the same library), and the
// router assigns each segment ordinal a primary plus replicas by rotation
// over the sorted node list. That placement is a pure function of
// (ordinal, node list), so the router keeps no state between requests —
// any number of routers can front the same nodes.
//
// Reads are conditional on the manifest generation: a node whose segment
// set moved (a commit or compaction landed) fails the leg with ErrStale
// and the router re-plans against a fresh manifest, so every served page
// is computed against one consistent generation. Per-leg failures hedge
// (after HedgeAfter, the next replica is raced) and fail over (an
// unreachable node's legs move to replicas immediately); when every
// replica of a segment is down, the router either fails open (serve the
// reachable subset, marked partial) or fails closed (503), per Options.
//
// Combined (q=) and explain queries are proxied whole to one node instead.
// Legs, manifest reads and proxies all walk one node order (candidates),
// each node at most once; a proxy starts at a hash of the query's key, so
// a page's cursor follow-up lands on the node that minted the cursor.
package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/dlse"
	"repro/internal/ir"
	"repro/internal/serve"
	"repro/internal/transport"
)

// Options tunes a Router.
type Options struct {
	// Replicas is how many nodes may answer each segment ordinal (primary
	// plus Replicas-1 fallbacks), capped at the node count. < 1 selects 2.
	Replicas int
	// HedgeAfter is how long the primary leg may run before the next
	// replica is raced against it. 0 selects 20ms; negative disables
	// hedging (failover on error still happens).
	HedgeAfter time.Duration
	// Timeout bounds one scatter attempt, and one node's turn at a proxied
	// query. 0 selects 5s.
	Timeout time.Duration
	// FailOpen serves the reachable subset (marked partial) when every
	// replica of some segment is down, instead of failing the query
	// with 503.
	FailOpen bool
}

func (o Options) withDefaults(nodes int) Options {
	if o.Replicas < 1 {
		o.Replicas = 2
	}
	if o.Replicas > nodes {
		o.Replicas = nodes
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 20 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	return o
}

// node is one cluster member: its segment source plus the health flag that
// probes and failed requests maintain.
type node struct {
	src     transport.SegmentSource
	healthy atomic.Bool // false once a leg or probe found it down
}

// Router fans queries over a fixed node set. Safe for concurrent use.
type Router struct {
	nodes  []*node // sorted by Addr: the placement input
	opts   Options
	client *http.Client // proxies whole requests (q=, explain) to a node

	// Counters and gauges, exported on /metrics and /debug/vars.
	queries   *serve.Counter       // v2 searches handled
	lexicalQ  *serve.Counter       // keyword-lane searches
	vectorQ   *serve.Counter       // vector-lane searches
	hybridQ   *serve.Counter       // hybrid-lane searches
	proxied   *serve.Counter       // queries proxied whole to one node (q=, explain)
	scatters  *serve.Counter       // scatter attempts (stale retries count again)
	staleRe   *serve.Counter       // scatter attempts retried on ErrStale
	hedges    *serve.Counter       // hedge legs launched
	hedgeWins *serve.Counter       // groups won by a non-primary leg
	failovers *serve.Counter       // legs moved to a replica after an error
	partials  *serve.Counter       // fail-open answers served incomplete
	failures  *serve.Counter       // queries failed
	nodeReqs  *serve.CounterFamily // per-node legs launched
	nodeErrs  *serve.CounterFamily // per-node legs failed
	nodeHedge *serve.CounterFamily // per-node hedge legs launched

	mux *http.ServeMux
}

// New builds a Router over node base URLs, talking HTTP via client (nil
// selects http.DefaultClient).
func New(urls []string, opts Options, client *http.Client) (*Router, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("router: no nodes")
	}
	srcs := make([]transport.SegmentSource, len(urls))
	for i, u := range urls {
		srcs[i] = transport.NewRemote(u, client)
	}
	r, err := NewWithSources(srcs, opts)
	if err == nil && client != nil {
		r.client = client
	}
	return r, err
}

// NewWithSources builds a Router over explicit segment sources — the hook
// tests use to inject in-process or fault-injecting sources. Sources are
// sorted by Addr so placement is deterministic regardless of argument
// order.
func NewWithSources(srcs []transport.SegmentSource, opts Options) (*Router, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("router: no nodes")
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].Addr() < srcs[j].Addr() })
	for i := 1; i < len(srcs); i++ {
		if srcs[i].Addr() == srcs[i-1].Addr() {
			return nil, fmt.Errorf("router: duplicate node %s", srcs[i].Addr())
		}
	}
	reg := serve.NewRegistry()
	r := &Router{
		opts:    opts.withDefaults(len(srcs)),
		client:  http.DefaultClient,
		queries: reg.Counter("router_queries"),
		// The lane counters share the node surface's names
		// (dl_queries_*_total) so one dashboard query covers routers and
		// nodes alike.
		lexicalQ:  reg.Counter("queries_lexical"),
		vectorQ:   reg.Counter("queries_vector"),
		hybridQ:   reg.Counter("queries_hybrid"),
		proxied:   reg.Counter("router_proxied"),
		scatters:  reg.Counter("router_scatters"),
		staleRe:   reg.Counter("router_stale_retries"),
		hedges:    reg.Counter("router_hedges"),
		hedgeWins: reg.Counter("router_hedge_wins"),
		failovers: reg.Counter("router_failovers"),
		partials:  reg.Counter("router_partial_answers"),
		failures:  reg.Counter("router_failures"),
		nodeReqs:  reg.CounterFamily("node_requests", "node"),
		nodeErrs:  reg.CounterFamily("node_errors", "node"),
		nodeHedge: reg.CounterFamily("node_hedges", "node"),
	}
	for _, s := range srcs {
		n := &node{src: s}
		n.healthy.Store(true)
		r.nodes = append(r.nodes, n)
	}
	reg.GaugeFamilyFunc("node_healthy", "node", func() map[string]float64 {
		up := make(map[string]float64, len(r.nodes))
		for _, n := range r.nodes {
			up[n.src.Addr()] = 0
			if n.healthy.Load() {
				up[n.src.Addr()] = 1
			}
		}
		return up
	})
	reg.GaugeFunc("nodes", func() float64 { return float64(len(r.nodes)) })
	reg.GaugeFunc("heap_live_bytes", serve.HeapLiveBytes)
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("/v2/search", r.handleSearch)
	r.mux.HandleFunc("/healthz", r.handleHealthz)
	r.mux.HandleFunc("/metrics", reg.HandleProm)
	r.mux.HandleFunc("/debug/vars", reg.HandleJSON)
	return r, nil
}

// Nodes lists the cluster members in placement order.
func (r *Router) Nodes() []string {
	addrs := make([]string, len(r.nodes))
	for i, n := range r.nodes {
		addrs[i] = n.src.Addr()
	}
	return addrs
}

// CheckHealth probes every node once and updates the health flags
// placement consults. Returns the number of healthy nodes.
func (r *Router) CheckHealth(ctx context.Context) int {
	healthy := 0
	for _, n := range r.nodes {
		up := n.src.Health(ctx) == nil
		n.healthy.Store(up)
		if up {
			healthy++
		}
	}
	return healthy
}

// availability reports whether a leg error means "this node could not
// answer" (retry elsewhere) rather than "this query is wrong" (every
// replica would answer the same — abort so fail-open can never turn a 400
// into an empty 200).
func availability(err error) bool {
	return errors.Is(err, transport.ErrUnavailable) ||
		errors.Is(err, context.DeadlineExceeded)
}

// manifest fetches the current segment manifest from the first node that
// answers, in node order from node 0.
func (r *Router) manifest(ctx context.Context) (transport.Manifest, error) {
	var lastErr error
	for _, n := range r.candidates(0, len(r.nodes)) {
		m, err := n.src.Manifest(ctx)
		if err == nil {
			return m, nil
		}
		if !availability(err) {
			return transport.Manifest{}, err
		}
		n.healthy.Store(false)
		lastErr = err
	}
	return transport.Manifest{}, fmt.Errorf("no node answered a manifest: %w", lastErr)
}

// group is one scatter unit: the segment ordinals owned by one primary,
// plus the replica candidates that may answer them. Candidates depend only
// on ordinal mod node count, so ordinals sharing a primary share replicas.
type group struct {
	sel        transport.Sel
	candidates []*node // primary first, then failover/hedge order
}

// plan partitions the wanted segment ordinals into per-primary groups.
// Ordinal o's candidates are candidates(o mod N, Replicas) — a pure
// function of the sorted node list, so every router instance plans
// identically.
func (r *Router) plan(textOrds, videoOrds []int) []group {
	n := len(r.nodes)
	byPrimary := make(map[int]*group)
	add := func(ord int, video bool) {
		p := ord % n
		g := byPrimary[p]
		if g == nil {
			g = &group{candidates: r.candidates(p, r.opts.Replicas)}
			byPrimary[p] = g
		}
		if video {
			g.sel.Video = append(g.sel.Video, ord)
		} else {
			g.sel.Text = append(g.sel.Text, ord)
		}
	}
	for _, o := range textOrds {
		add(o, false)
	}
	for _, o := range videoOrds {
		add(o, true)
	}
	groups := make([]group, 0, len(byPrimary))
	for p := 0; p < n; p++ {
		if g := byPrimary[p]; g != nil {
			groups = append(groups, *g)
		}
	}
	return groups
}

// candidates lists the nodes (p+r) mod N for r < reps, healthy ones first
// (a mark may be stale, so down nodes come last, not never): the one node
// order every walk over nodes follows, each node at most once.
func (r *Router) candidates(p, reps int) []*node {
	cands := make([]*node, reps)
	for rep := range cands {
		cands[rep] = r.nodes[(p+rep)%len(r.nodes)]
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return cands[i].healthy.Load() && !cands[j].healthy.Load()
	})
	return cands
}

// legResult is one candidate's answer to a group's partial query.
type legResult struct {
	p    *transport.Partial
	err  error
	node *node
	leg  int // candidate index that ran the leg
}

// runGroup executes one group with hedging and failover: the primary leg
// launches immediately; after HedgeAfter the next candidate is raced
// against it; a leg failing with an availability error triggers the next
// candidate at once. First successful answer wins and cancels the rest.
// Semantic errors (bad query, stale generation) abort immediately — every
// replica would answer the same.
func (r *Router) runGroup(ctx context.Context, q transport.Query, g group, expectGen int64) (*transport.Partial, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan legResult, len(g.candidates))
	launched := 0
	launch := func(hedge bool) {
		leg := launched
		n := g.candidates[leg]
		launched++
		r.nodeReqs.Add(n.src.Addr(), 1)
		if hedge {
			r.hedges.Add(1)
			r.nodeHedge.Add(n.src.Addr(), 1)
		}
		go func() {
			p, err := n.src.Partial(ctx, q, g.sel, expectGen)
			results <- legResult{p: p, err: err, node: n, leg: leg}
		}()
	}
	launch(false)

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if r.opts.HedgeAfter > 0 && launched < len(g.candidates) {
		hedgeTimer = time.NewTimer(r.opts.HedgeAfter)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	var lastErr error
	pending := launched
	for {
		select {
		case <-ctx.Done():
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, fmt.Errorf("%w: %v", transport.ErrUnavailable, ctx.Err())
		case <-hedgeC:
			hedgeC = nil
			if launched < len(g.candidates) {
				launch(true)
				pending++
			}
		case res := <-results:
			if res.err == nil {
				if res.leg > 0 {
					r.hedgeWins.Add(1)
				}
				return res.p, nil
			}
			pending--
			r.nodeErrs.Add(res.node.src.Addr(), 1)
			stale := errors.Is(res.err, transport.ErrStale)
			if !availability(res.err) && !stale {
				return nil, res.err // semantic: every replica would answer the same
			}
			// A stale node (behind the manifest mid-commit) is worth a
			// replica try — another node may already serve the expected
			// generation — but it is not down, so its health mark stays.
			if !stale {
				res.node.healthy.Store(false)
			}
			lastErr = res.err
			if launched < len(g.candidates) {
				r.failovers.Add(1)
				launch(false)
				pending++
			} else if pending == 0 {
				return nil, lastErr
			}
		}
	}
}

// gathered is one consistent-generation scatter answer.
type gathered struct {
	man     transport.Manifest
	parts   []*transport.Partial
	sels    []transport.Sel // the selection each part answered
	missing int             // groups lost to fail-open
}

// answered is the union of the selections the parts answered, in ordinal
// order: everything the gather covered, which under fail-open is less than
// what it asked for.
func (g *gathered) answered() transport.Sel {
	var sel transport.Sel
	for _, s := range g.sels {
		sel.Text = append(sel.Text, s.Text...)
		sel.Video = append(sel.Video, s.Video...)
	}
	sort.Ints(sel.Text)
	sort.Ints(sel.Video)
	return sel
}

// scatter plans and executes one consistent read of the wanted segments.
// ErrStale from any leg aborts the attempt (the caller refetches the
// manifest and retries); with FailOpen, groups whose every candidate is
// down are dropped and counted in missing.
func (r *Router) scatter(ctx context.Context, q transport.Query, man transport.Manifest, textOrds, videoOrds []int) (*gathered, error) {
	r.scatters.Add(1)
	ctx, cancel := context.WithTimeout(ctx, r.opts.Timeout)
	defer cancel()
	groups := r.plan(textOrds, videoOrds)
	type out struct {
		p   *transport.Partial
		err error
	}
	outs := make([]out, len(groups))
	done := make(chan int, len(groups))
	for i := range groups {
		go func(i int) {
			p, err := r.runGroup(ctx, q, groups[i], man.Generation)
			outs[i] = out{p, err}
			done <- i
		}(i)
	}
	g := &gathered{man: man}
	var firstErr error
	for range groups {
		i := <-done
		if err := outs[i].err; err != nil {
			switch {
			case errors.Is(err, transport.ErrStale):
				// Abort the whole attempt: the segment set moved.
				return nil, err
			case availability(err) && r.opts.FailOpen:
				g.missing++
			case firstErr == nil:
				firstErr = err
			}
			continue
		}
		g.parts = append(g.parts, outs[i].p)
		g.sels = append(g.sels, groups[i].sel)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return g, nil
}

// ordinals returns [0, n).
func ordinals(n int) []int {
	ords := make([]int, n)
	for i := range ords {
		ords[i] = i
	}
	return ords
}

// Search answers a unified v2 query by scatter-gather over the cluster.
// Supported forms are Keyword, Vector, Hybrid, and Scenes (the combined
// q= form is proxied whole by the HTTP layer — every node holds the full
// library). The bool reports a fail-open partial answer. Stale-generation
// aborts re-plan against a fresh manifest, bounded at 4 attempts.
func (r *Router) Search(ctx context.Context, q dlse.Query, cursor dlse.Cursor, limit int) (*dlse.ResultSet, bool, error) {
	key, ok := dlse.CanonicalKey(q)
	if !ok {
		return nil, false, fmt.Errorf("router: unsupported distributed query form")
	}
	r.queries.Add(1)
	switch {
	case q.Keyword != "":
		r.lexicalQ.Add(1)
	case q.Vector != "":
		r.vectorQ.Add(1)
	case q.Hybrid != "":
		r.hybridQ.Add(1)
	}
	rs, partial, err := r.gather(ctx, q, key, dlse.Depth(cursor, limit))
	if err != nil {
		r.failures.Add(1)
		return nil, false, err
	}
	if partial {
		r.partials.Add(1)
	}
	page, err := rs.Page(cursor, limit)
	if err != nil {
		r.failures.Add(1)
		return nil, false, err
	}
	return page, partial, nil
}

const maxStaleRetries = 4

// gather computes the distributed answer to the given depth (dlse.Depth; 0
// is the full ranking): keyword and vector legs are asked for their top
// depth — clamped to the documents the manifest says the lane has, since
// depth is client input — and report how many documents matched, so the
// merged prefix carries the exact total. A hybrid query is bounded the same
// way, in two rounds (hybrid).
func (r *Router) gather(ctx context.Context, q dlse.Query, key string, depth int) (*dlse.ResultSet, bool, error) {
	var lastErr error
	for attempt := 0; attempt < maxStaleRetries; attempt++ {
		if attempt > 0 {
			r.staleRe.Add(1)
			// A short, growing pause lets a cluster-wide swap finish
			// instead of burning every retry inside the same mid-commit
			// window (node A installed, node B a few microseconds behind).
			time.Sleep(time.Duration(attempt) * 2 * time.Millisecond)
		}
		man, err := r.manifest(ctx)
		if err != nil {
			return nil, false, err
		}
		if q.Hybrid != "" {
			rs, partial, err := r.hybrid(ctx, q.Hybrid, key, man, depth)
			if errors.Is(err, transport.ErrStale) {
				lastErr = err
				continue
			}
			return rs, partial, err
		}
		var tq transport.Query
		var textOrds, videoOrds []int
		switch {
		case q.Keyword != "", q.Vector != "":
			// Both ranked lanes index the pages, under the text ordinals.
			tq = transport.Query{Keyword: q.Keyword, Vector: q.Vector, K: min(depth, man.Docs)}
			textOrds = ordinals(man.TextSegments)
		default:
			if man.Videos == 0 {
				return nil, false, fmt.Errorf("%w: scene query %q needs an indexed video library",
					dlse.ErrNoIndex, q.Scenes)
			}
			tq = transport.Query{Scenes: q.Scenes}
			videoOrds = ordinals(len(man.Segments))
		}
		g, err := r.scatter(ctx, tq, man, textOrds, videoOrds)
		if err != nil {
			if errors.Is(err, transport.ErrStale) {
				lastErr = err
				continue
			}
			return nil, false, err
		}
		items, total := mergeParts(tq, g.parts)
		// Cursors bind to (key, snapshot); the manifest generation is the
		// cluster-wide stand-in for a snapshot — stable across nodes,
		// moved by every commit.
		rs := dlse.NewResultSet(items, total, key, g.man.Generation)
		return rs, g.missing > 0, nil
	}
	return nil, false, fmt.Errorf("router: segment set kept moving during query: %w", lastErr)
}

// hybrid answers a hybrid query to the given depth under one manifest
// generation, as a node does (dlse.FuseCandidates), in two rounds:
//
//  1. both lanes scatter over the text ordinals at the depth an exact
//     fusion of the page needs (dlse.FuseDepths: the page depth clamped to
//     the pages before it is doubled, since depth is client input);
//  2. each lane places the other's candidates: one rank-lookup leg per lane
//     (Query.Ranks) counts their ranks over exactly the ordinals that lane
//     answered in round 1, so a fail-open page fuses the reachable legs as
//     FuseRRF over their full rankings would. Storage is replicated, so any
//     node can count over every ordinal: the two legs start on different
//     nodes and hedge and fail over like any group. A lane whose round-1
//     list is its whole ranking needs no leg.
//
// Any leg going stale aborts the query for a re-plan: both lanes must
// answer against the same segment set or the fusion is meaningless.
func (r *Router) hybrid(ctx context.Context, text, key string, man transport.Manifest, depth int) (*dlse.ResultSet, bool, error) {
	if depth <= 0 {
		depth = math.MaxInt // no limit: fuse the whole lanes
	}
	d, laneK := dlse.FuseDepths(depth, man.Docs)
	kw, err := r.scatter(ctx, transport.Query{Keyword: text, K: laneK},
		man, ordinals(man.TextSegments), nil)
	if err != nil {
		return nil, false, err
	}
	vec, err := r.scatter(ctx, transport.Query{Vector: text, K: laneK},
		man, ordinals(man.TextSegments), nil)
	if err != nil {
		return nil, false, err
	}
	lex, lexMatched := mergeHits(kw.parts, laneK)
	sem, semMatched := mergeHits(vec.parts, laneK)

	ctx, cancel := context.WithTimeout(ctx, r.opts.Timeout)
	defer cancel()
	var vecOfLex []int
	var vecErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		vecOfLex, vecErr = r.laneRanks(ctx, transport.Query{Vector: text}, vec, sem, semMatched, lex, 1)
	}()
	lexOfVec, err := r.laneRanks(ctx, transport.Query{Keyword: text}, kw, lex, lexMatched, sem, 0)
	<-done
	if err == nil || errors.Is(vecErr, transport.ErrStale) {
		err = vecErr
	}
	if err != nil {
		return nil, false, err
	}
	items := dlse.FuseCandidates(d, lex, sem, vecOfLex, lexOfVec)

	// The total is the union of the lanes' answers: what the vector lane
	// scanned (every page of its segments), plus under fail-open the pages
	// of text ordinals only the keyword lane reached. Both lanes group
	// text ordinals by the same primaries, so a keyword part's ordinals were
	// all answered by the vector lane or none were.
	total := semMatched
	vecText := map[int]bool{}
	for _, o := range vec.answered().Text {
		vecText[o] = true
	}
	for i, p := range kw.parts {
		if !vecText[kw.sels[i].Text[0]] {
			total += p.Matched
		}
	}
	rs := dlse.NewResultSet(items, total, key, man.Generation)
	return rs, kw.missing > 0 || vec.missing > 0, nil
}

// laneRanks places docs (the other lane's candidates) in the lane g
// gathered: from list itself when it holds all matched documents — the
// lane's whole ranking over what g answered — and otherwise through a
// rank-lookup leg over exactly that selection, starting on node first.
func (r *Router) laneRanks(ctx context.Context, q transport.Query, g *gathered, list []ir.Hit, matched int, docs []ir.Hit, first int) ([]int, error) {
	ranks := make([]int, len(docs))
	if len(docs) == 0 {
		return ranks, nil
	}
	if len(list) == matched {
		at := make(map[ir.DocID]int, len(list))
		for i, h := range list {
			at[h.Doc] = i + 1
		}
		for i, h := range docs {
			ranks[i] = at[h.Doc]
		}
		return ranks, nil
	}
	q.Ranks = make([]ir.DocID, len(docs))
	for i, h := range docs {
		q.Ranks[i] = h.Doc
	}
	leg := group{sel: g.answered(), candidates: r.candidates(first%len(r.nodes), len(r.nodes))}
	p, err := r.runGroup(ctx, q, leg, g.man.Generation)
	if err != nil {
		return nil, err
	}
	if len(p.Ranks) != len(docs) {
		return nil, fmt.Errorf("router: rank lookup of %d documents answered %d ranks", len(docs), len(p.Ranks))
	}
	return p.Ranks, nil
}

// mergeHits merges per-group ranked partial answers (keyword or vector —
// both rank under the engine's global score desc, DocID asc order) into
// the global hit list, capped at k (0 keeps everything), and sums what the
// groups matched.
func mergeHits(parts []*transport.Partial, k int) (hits []ir.Hit, matched int) {
	per := make([][]ir.Hit, 0, len(parts))
	for _, p := range parts {
		hits := make([]ir.Hit, len(p.Hits))
		for i, h := range p.Hits {
			hits[i] = ir.Hit{Doc: h.Doc, Name: h.Page, Score: h.Score}
		}
		per = append(per, hits)
		matched += p.Matched
	}
	return ir.MergeHits(per, k), matched
}

// hitItems is mergeHits as result items.
func hitItems(parts []*transport.Partial, k int) (items []dlse.Item, matched int) {
	merged, matched := mergeHits(parts, k)
	items = make([]dlse.Item, len(merged))
	for i, h := range merged {
		items[i] = dlse.Item{Page: h.Name, Doc: h.Doc, Score: h.Score}
	}
	return items, matched
}

// mergeParts merges per-group partial answers into the global item list —
// the gather half of scatter-gather — and reports the size of the whole
// answer. Keyword and vector answers merge under the engine's total order
// (score desc, DocID asc), to the depth the legs were asked for; scene
// answers concatenate groups in segment-ordinal order, restoring the
// monolithic walk.
func mergeParts(q transport.Query, parts []*transport.Partial) ([]dlse.Item, int) {
	if q.Scenes == "" {
		return hitItems(parts, q.K)
	}
	var groups []transport.SceneGroup
	for _, p := range parts {
		groups = append(groups, p.Groups...)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Seg < groups[j].Seg })
	var items []dlse.Item
	for _, sg := range groups {
		scenes := sg.Scenes
		for i := range scenes {
			items = append(items, dlse.Item{Scene: &scenes[i]})
		}
	}
	return items, len(items)
}
