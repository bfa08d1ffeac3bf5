package main

// The traced run (-trace 1): the per-layer metrics. It is separate from the
// timed run, in process and single-threaded. The harness builds the same
// engine through the public constructors and brackets each call into a
// layer's exported functions with a span; counts are taken at the same
// boundaries. Four sections run for every workload, so that every per-layer
// metric is always reported:
//
//	A  the workload's own op sequence, through the serving path
//	B  a fixed probe of every query form, miss then hit
//	C  a fixed ingest probe: decode, detect, log, commit, checkpoint,
//	   compact, replay
//	D  a fixed router probe over in-process sources
//
// The workload's measurement over real HTTP comes first, exactly as the timed
// run makes it: it yields the http.* statistics, and a class's HTTP median
// minus its in-process median is what the HTTP layer adds.

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dlse"
	"repro/internal/fde"
	"repro/internal/fsx"
	"repro/internal/pipeline"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/transport"
	"repro/internal/vidfmt"
	"repro/internal/wal"
	"repro/internal/webspace"
)

// layerUnits names every per-layer metric and its unit; BENCHMARK.json's
// per_layer list is checked against it by the tests.
var layerUnits = map[string]string{
	"serve.parse_us": "us", "serve.search_hit_us": "us", "serve.search_miss_self_us": "us",
	"serve.encode_us": "us", "serve.encode_bytes": "bytes", "serve.cache_hit_ratio": "ratio",
	"serve.http_overhead_us": "us",
	"dlse.normalize_us":      "us", "dlse.lexical_us": "us", "dlse.vector_us": "us", "dlse.hybrid_us": "us",
	"dlse.combined_us": "us", "dlse.scenes_us": "us", "dlse.page_us": "us", "dlse.fuse_us": "us",
	"dlse.returned_per_ranked": "ratio", "dlse.allocs_per_search": "count", "dlse.engine_build_ms": "ms",
	"ir.search_us": "us", "ir.postings_per_query": "count", "ir.allocs_per_search": "count",
	"vec.embed_us": "us", "vec.search_us": "us", "vec.scanned_per_query": "count", "vec.allocs_per_search": "count",
	"core.scenes_hot_us": "us", "core.view_build_us": "us", "core.scenes_bytes_per_call": "bytes",
	"core.open_segfile_us": "us", "core.save_segfile_ms": "ms",
	"router.search_us": "us", "router.self_us": "us", "router.legs_per_query": "count",
	"transport.manifest_us": "us", "transport.partial_local_us": "us",
	"transport.partial_remote_us": "us", "transport.partial_bytes": "bytes",
	"vidfmt.read_svf_ms": "ms", "fde.process_ms": "ms", "pipeline.index_ms_per_video": "ms",
	"wal.append_us": "us", "wal.bytes_per_commit": "bytes", "fsx.fsyncs_per_commit": "count",
	"fsx.writes_per_commit": "count", "wal.replay_ms_per_record": "ms", "wal.checkpoint_ms": "ms",
	"library.commit_ms": "ms", "library.install_ms": "ms", "library.compact_ms": "ms",
	"library.compact_bytes_rewritten": "bytes",
	"webspace.generate_site_ms":       "ms", "loadgen.client_cpu_share": "ratio", "trace.overhead_ratio": "ratio",
	// Over real HTTP, from the traced run's own short phase: the statistics
	// that do not repeat within a tenth on a shared host and so carry no bound.
	"http.quiet_latency_ms": "ms", "http.quiet_throughput_ops_per_s": "1/s", "http.recovery_s": "s",
	"http.latency_p50_ms": "ms", "http.latency_p90_ms": "ms", "http.read_beside_p50_ms": "ms",
	"http.throughput_ops_per_s": "1/s", "http.cpu_ms_per_op": "ms",
}

// Sizes of the traced run. Op counts are fixed, not timed, so that every
// count it reports repeats exactly for a seed.
const (
	tracedOps        = 1200 // section A, single dlserve: alternately untraced and traced
	tracedClusterOps = 400  // section A behind the router, where an op costs several times more
	probeOps         = 32   // section B, per query form
	ingestProbe      = 17   // section C commits: checkpoint after 8, so 9 replay
	ingestSamples    = 8    // section C decode / detect / pipeline samples
	routerProbeOps   = 96   // section D
	remoteProbeOps   = 48   // Remote.Partial calls against the live node
)

// inproc is the in-process system of the traced run and its counters.
type inproc struct {
	r    *runner
	tr   *tracer
	dl   *repro.DigitalLibrary
	e    *dlse.Engine // dl's engine snapshot; nothing commits into dl
	opts repro.LibraryOptions

	encodeBytes, responses   float64 // section A
	returned, ranked, misses float64 // page items vs full-list items, misses only
	postings, irSearches     float64
	scanned, vecSearches     float64
	legs, routed             float64
	rootNs                   int64 // summed durations of section A's request spans
	sectionA                 bool
	plainSrv                 *repro.Server       // uncached; the real handler the traced ops are held against
	plain                    map[int][]float64   // section A, untraced: ServeHTTP microseconds per class
	stages                   map[int]*stageTimes // section A, traced: stage microseconds per class
	compared                 int                 // traced ops whose response was compared with the handler's
	lexTexts, vecTexts, keys []string            // probe inputs for the alloc counts
	pending                  []missed            // misses whose inner calls await replay
}

func (r *runner) runTraced() (map[string]string, error) {
	r.cfg.setups = 1
	if err := r.prepare(); err != nil {
		return nil, err
	}
	st, warmOps := r.streamOf()
	m := r.out

	// The real stack first, measured as the timed run measures it: these are
	// the http.* statistics, and the medians per class the spans are held
	// against. The stack is left serving for the partial reads below.
	solo, err := r.measure(3 * time.Second)
	if err != nil {
		return nil, err
	}
	pool, _, err := r.corpus.commitPool(r.cfg.commits() + ingestProbe)
	if err != nil {
		return nil, err
	}
	pool = pool[r.cfg.commits():] // ingest-commit has linked the first of them already

	tr := newTracer()
	p := &inproc{
		r: r, tr: tr, opts: repro.LibraryOptions{TextSegments: textSegments},
		plain: map[int][]float64{}, stages: map[int]*stageTimes{},
	}
	ranked := newRankedStream(r.corpus)
	if err := p.remoteProbe(ranked); err != nil {
		return nil, err
	}
	r.ps.killAll()

	// The same engine, built in process through the public constructors.
	tr.in("webspace.generate_site", func() { _, _ = repro.GenerateSite(r.corpus.siteCfg) })
	var lib *repro.Library
	tr.in("core.open_segfile", func() { lib, err = repro.LoadLibraryFile(r.files.meta) })
	if err != nil {
		return nil, err
	}
	tr.in("dlse.engine_build", func() { p.dl, err = repro.NewDigitalLibraryWith(r.corpus.site, lib, p.opts) })
	if err != nil {
		return nil, err
	}
	p.plainSrv = repro.NewServer(p.dl, repro.ServerOptions{CacheSize: -1})
	p.e = p.plainSrv.Engine()

	overhead, hitRatio, err := p.sectionAOps(st, warmOps)
	if err != nil {
		return nil, err
	}
	if err := p.formProbes(ranked); err != nil {
		return nil, err
	}
	if err := p.ingestProbe(pool); err != nil {
		return nil, err
	}
	if r.cfg.workload != rankedCluster { // there, section A was the router
		if _, err := p.routerOps(ranked, 2_000_000, routerProbeOps, false); err != nil {
			return nil, err
		}
	}

	st2 := timesOf(tr.spans)
	med := func(name string) float64 { return median(st2.total[name]) }
	n := func(name string) int { return len(st2.total[name]) }
	for metric, spanName := range map[string]string{
		"serve.parse_us": "serve.parse", "serve.search_hit_us": "serve.search_hit",
		"serve.encode_us": "serve.encode", "dlse.normalize_us": "dlse.normalize",
		"dlse.lexical_us": "dlse.lexical", "dlse.vector_us": "dlse.vector", "dlse.hybrid_us": "dlse.hybrid",
		"dlse.combined_us": "dlse.combined", "dlse.scenes_us": "dlse.scenes", "dlse.page_us": "dlse.page",
		"dlse.fuse_us": "dlse.fuse", "ir.search_us": "ir.search", "vec.embed_us": "vec.embed",
		"vec.search_us": "vec.search", "core.scenes_hot_us": "core.scenes_hot",
		"core.view_build_us": "core.view_build", "core.open_segfile_us": "core.open_segfile",
		"router.search_us": "router.search", "transport.manifest_us": "transport.manifest",
		"transport.partial_local_us": "transport.partial_local", "transport.partial_remote_us": "transport.partial_remote",
		"wal.append_us": "wal.append",
	} {
		m.set(metric, med(spanName), n(spanName))
	}
	for metric, spanName := range map[string]string{
		"dlse.engine_build_ms": "dlse.engine_build", "core.save_segfile_ms": "core.save_segfile",
		"vidfmt.read_svf_ms": "vidfmt.read_svf", "fde.process_ms": "fde.process",
		"pipeline.index_ms_per_video": "pipeline.index_video", "wal.checkpoint_ms": "wal.checkpoint",
		"library.commit_ms": "library.commit", "library.compact_ms": "library.compact",
		"webspace.generate_site_ms": "webspace.generate_site",
	} {
		m.set(metric, med(spanName)/1000, n(spanName))
	}
	m.set("serve.search_miss_self_us", median(st2.self["serve.search_miss"]), n("serve.search_miss"))
	m.set("router.self_us", median(st2.self["router.search"]), n("router.search"))
	m.set("wal.replay_ms_per_record", med("wal.replay")/1000/float64(ingestProbe-ingestProbe/2), n("wal.replay"))
	// What a durable commit costs beyond logging and indexing: embedding the
	// new segment, building its view, swapping the snapshot in.
	m.set("library.install_ms",
		(med("library.commit_token")-med("wal.append")-med("library.commit"))/1000, n("library.commit_token"))
	m.set("serve.encode_bytes", p.encodeBytes/p.responses, int(p.responses))
	m.set("serve.cache_hit_ratio", hitRatio, 2*int(p.responses)) // counted over both halves
	m.set("dlse.returned_per_ranked", p.returned/p.ranked, int(p.misses))
	m.set("ir.postings_per_query", p.postings/p.irSearches, int(p.irSearches))
	m.set("vec.scanned_per_query", p.scanned/p.vecSearches, int(p.vecSearches))
	m.set("router.legs_per_query", p.legs/p.routed, int(p.routed))
	m.set("trace.overhead_ratio", overhead, int(p.responses))
	p.allocCounts()
	p.reconcile(solo)

	for name := range layerUnits {
		if _, ok := m.metrics[name]; !ok {
			return nil, fmt.Errorf("traced run produced no %s", name)
		}
	}
	out := filepath.Join(filepath.Dir(r.cfg.workDir), "trace-"+r.cfg.workload+".json")
	if err := writeSpans(out, tr.spans); err != nil {
		return nil, err
	}
	m.notes = append(m.notes,
		fmt.Sprintf("%d traced responses equal to the real handler's", p.compared),
		fmt.Sprintf("%d spans written to %s", len(tr.spans), out))
	return layerUnits, nil
}

// stageTimes holds, for the traced ops of one class, the microseconds of the
// three stages of a request.
type stageTimes struct{ parse, search, encode []float64 }

// reconcile is the check the layer table rests on. It takes the class of
// operation most of section A's ops belong to (a lane, or a cache hit), and
// holds the stages of its median request as the spans measured them, plus
// what HTTP adds, against the median the load generator measured over real
// HTTP: the two must agree within a tenth. serve.http_overhead_us is that
// class's HTTP median minus its in-process median through the real handler.
func (p *inproc) reconcile(solo phaseStats) {
	class := -1
	for c, times := range p.plain {
		if p.stages[c] != nil && (class < 0 || len(times) > len(p.plain[class])) {
			class = c
		}
	}
	p50, measured := solo.classP50[class]
	if class < 0 || !measured {
		p.r.gen.fail("no class of operation was measured over HTTP, through the handler and in spans alike")
		return
	}
	httpUs := 1000 * p50
	sg := p.stages[class]
	stages := median(sg.parse) + median(sg.search) + median(sg.encode)
	overhead := httpUs - median(p.plain[class])
	p.r.out.set("serve.http_overhead_us", overhead, len(p.plain[class]))
	p.r.out.notes = append(p.r.out.notes, fmt.Sprintf(
		"median %s request: parse %.1f + search %.1f + encode %.1f = %.1f us in its spans (n=%d), %.1f us through the real handler (n=%d); "+
			"with serve.http_overhead_us %.1f us the stages sum to %.1f us; HTTP solo median %.1f us",
		classNames[class], median(sg.parse), median(sg.search), median(sg.encode), stages, len(sg.search),
		median(p.plain[class]), len(p.plain[class]), overhead, stages+overhead, httpUs))
	if diff := stages + overhead - httpUs; diff > 0.1*httpUs || diff < -0.1*httpUs {
		p.r.gen.fail("the stages of the median %s request and the HTTP overhead sum to %.1f us, not within a tenth of the HTTP median %.1f us",
			classNames[class], stages+overhead, httpUs)
	}
}

// parse turns an op into the handler's inputs, as the HTTP layer would.
func parse(o op) *http.Request {
	return httptest.NewRequest(http.MethodGet, "/v2/search?"+o.query, nil)
}

// ---------------------------------------------------------------- section A

// sectionAOps runs the workload's op sequence in process: every other op
// untraced through the real handler (their times, per class, are the
// in-process latency and the base of the overhead ratio), the others traced.
// It returns the tracing overhead ratio and the cache hit ratio over both
// halves.
func (p *inproc) sectionAOps(st stream, warmOps int) (overhead, hitRatio float64, err error) {
	if p.r.cfg.workload == rankedCluster {
		ranked := st.(*rankedStream)
		p.sectionA = true
		plainUs, err := p.routerOps(ranked, 0, tracedClusterOps/2, true)
		if err != nil {
			return 0, 0, err
		}
		tracedUs, err := p.routerOps(ranked, tracedClusterOps/2, tracedClusterOps/2, false)
		p.sectionA = false
		return tracedUs / plainUs, 0, err
	}
	// One server, warmed up as the timed run warms it, then the next ops of
	// the stream, alternately untraced through the real handler and traced:
	// both halves see the same cache state and the same garbage collections.
	srv := repro.NewServer(p.dl, repro.ServerOptions{})
	plainUs := 0.0
	var hits0, misses0 int64
	for i := 0; i < warmOps+tracedOps; i++ {
		o := st.at(i)
		if i == warmOps {
			_, hits0, misses0 = srv.CacheStats()
		}
		if i >= warmOps && i%2 == 1 {
			p.sectionA = true
			err := p.tracedOp(srv, o, i%(2*sampleEvery) == 1)
			p.sectionA = false
			if err != nil {
				return 0, 0, err
			}
			continue
		}
		_, h0, _ := srv.CacheStats()
		req, rec := parse(o), httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		us := float64(time.Since(t0)) / 1e3
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("in-process %s: status %d", o.query, rec.Code)
		}
		if i >= warmOps {
			_, h1, _ := srv.CacheStats()
			class := classOf(o, h1 > h0)
			p.plain[class] = append(p.plain[class], us)
			plainUs += us
		}
	}
	_, hits, misses := srv.CacheStats()
	if err := p.replayMisses(srv.Engine()); err != nil {
		return 0, 0, err
	}
	srv.InvalidateCache() // this server's cached lists are garbage now
	runtime.GC()
	hits, misses = hits-hits0, misses-misses0
	return float64(p.rootNs) / 1e3 / plainUs, float64(hits) / float64(hits+misses), nil
}

// classOf is the class a served op counts under: its lane, or for a pooled
// query whether the result cache answered it.
func classOf(o op, cached bool) int {
	switch {
	case o.pool < 0:
		return o.class
	case cached:
		return classHit
	}
	return classMiss
}

// tracedOp serves one op the way handleV2Search does — parse, search, encode
// — with a span around each exported call. The calls a miss made inside
// Server.Search are queued for replayMisses. With compare set, the response
// is also held against the real handler's answer to the same request: the
// spans describe the serving path only as long as the two are equal.
func (p *inproc) tracedOp(srv *repro.Server, o op, compare bool) error {
	tr, ctx := p.tr, context.Background()
	req, rec := parse(o), httptest.NewRecorder()
	var (
		q       dlse.Query
		cursor  dlse.Cursor
		limit   int
		explain bool
		rs      *dlse.ResultSet
		cached  bool
		err     error
	)
	tr.nextRequest()
	root := tr.begin("request")
	pid := tr.in("serve.parse", func() { q, cursor, limit, explain, err = serve.ParseSearchQuery(req) })
	if err != nil {
		return err
	}
	t0 := time.Now()
	sid := tr.begin("serve.search")
	rs, cached, err = srv.Search(ctx, q, cursor, limit, explain)
	tr.end(sid)
	if err != nil {
		return fmt.Errorf("in-process %s: %w", o.query, err)
	}
	eid := tr.in("serve.encode", func() { serve.WriteSearchResult(rec, rs, cached, false, time.Since(t0)) })
	tr.end(root)
	if p.sectionA {
		p.recordStages(classOf(o, cached), root, pid, sid, eid, rec.Body.Len())
	}
	if compare {
		if err := p.compareWithHandler(p.plainSrv, o, rec.Body.Bytes()); err != nil {
			return err
		}
	}
	if cached {
		tr.rename(sid, "serve.search_hit")
		return nil
	}
	tr.rename(sid, "serve.search_miss")
	p.returned += float64(len(rs.Items))
	p.ranked += float64(rs.Total)
	p.misses++
	p.pending = append(p.pending, missed{sid, tr.req, q, cursor, limit})
	return nil
}

// recordStages files a section A request's spans under its class.
func (p *inproc) recordStages(class, root, parse, search, encode, bodyLen int) {
	us := func(id int) float64 { return float64(p.tr.spans[id].End-p.tr.spans[id].Start) / 1e3 }
	sg := p.stages[class]
	if sg == nil {
		sg = &stageTimes{}
		p.stages[class] = sg
	}
	sg.parse, sg.search, sg.encode = append(sg.parse, us(parse)), append(sg.search, us(search)), append(sg.encode, us(encode))
	p.rootNs += p.tr.spans[root].End - p.tr.spans[root].Start
	p.encodeBytes += float64(bodyLen)
	p.responses++
}

// compareWithHandler answers the op through a real handler and requires the
// traced path's response to be equal to it, per-request fields aside.
func (p *inproc) compareWithHandler(h http.Handler, o op, traced []byte) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, parse(o))
	want, err := normalize(rec.Body.Bytes())
	if err != nil {
		return fmt.Errorf("in-process %s: handler: %v", o.query, err)
	}
	got, err := normalize(traced)
	if err != nil {
		return fmt.Errorf("in-process %s: traced path: %v", o.query, err)
	}
	if got != want {
		p.r.gen.fail("%s: the traced path and the real handler answer differently\n got %.300s\nwant %.300s", o.query, got, want)
	}
	p.compared++
	return nil
}

// missed is a cache miss whose inner calls are still to be replayed.
type missed struct {
	sid, req int
	q        dlse.Query
	cursor   dlse.Cursor
	limit    int
}

// replayMisses replays the inner calls of every miss since the last replay.
// It runs after a section's requests, not between them: a replay allocates
// as much as the request did, and interleaved it would double the garbage
// the collector has to keep up with while the requests are being timed.
func (p *inproc) replayMisses(e *dlse.Engine) error {
	for _, m := range p.pending {
		p.tr.req = m.req
		if err := p.replicas(m.sid, e, m.q, m.cursor, m.limit); err != nil {
			return err
		}
	}
	p.pending = nil
	return nil
}

// replicas repeats, as replica spans under the Server.Search span sid, the
// calls a cache miss makes: normalize, execute by form (with that form's own
// calls into ir, vec and core beneath it), page.
func (p *inproc) replicas(sid int, e *dlse.Engine, q dlse.Query, cursor dlse.Cursor, limit int) error {
	tr, ctx := p.tr, context.Background()
	var nq dlse.Query
	var full *dlse.ResultSet
	var err error
	tr.replica(sid, "dlse.normalize", func() { nq, _, err = e.Normalize(q) })
	if err != nil {
		return err
	}
	form := "scenes"
	switch {
	case nq.Request != nil:
		form = "combined"
	case nq.Keyword != "":
		form = "lexical"
	case nq.Vector != "":
		form = "vector"
	case nq.Hybrid != "":
		form = "hybrid"
	}
	did := tr.replica(sid, "dlse."+form, func() { full, err = e.SearchAll(ctx, nq, false) })
	if err != nil {
		return err
	}
	lexical := func(text string) []dlse.Item {
		var items []dlse.Item
		tr.replica(did, "ir.search", func() {
			hits, stats, _ := e.TextIndex().Search(text, 0)
			p.postings += float64(stats.PostingsScored)
			p.irSearches++
			for _, h := range hits {
				items = append(items, dlse.Item{Page: h.Name, Doc: h.Doc, Score: h.Score})
			}
		})
		return items
	}
	vector := func(text string) []dlse.Item {
		var items []dlse.Item
		vid := tr.replica(did, "vec.search", func() {
			hits, stats, _ := e.VecIndex().Search(text, 0)
			p.scanned += float64(stats.DocsScanned)
			p.vecSearches++
			for _, h := range hits {
				items = append(items, dlse.Item{Page: h.Name, Doc: h.Doc, Score: h.Score})
			}
		})
		tr.replica(vid, "vec.embed", func() { e.VecIndex().Embedder().Embed(text) })
		return items
	}
	switch form {
	case "lexical":
		lexical(nq.Keyword)
	case "vector":
		vector(nq.Vector)
	case "hybrid":
		lex, vec := lexical(nq.Hybrid), vector(nq.Hybrid)
		tr.replica(did, "dlse.fuse", func() { dlse.FuseRRF(lex, vec) })
	case "combined":
		req := nq.Request
		tr.replica(did, "webspace.select", func() {
			_, _ = e.Space().Run(webspace.Query{Class: req.Class, Where: req.Where})
		})
		if req.SceneKind != "" {
			tr.replica(did, "core.scenes_hot", func() { _, _ = e.VideoIndex().Scenes(req.SceneKind) })
		}
		if req.Text != "" {
			tr.replica(did, "ir.score", func() {
				if sc, _, err := e.TextIndex().ScoreQuery(req.Text); err == nil {
					sc.Release()
				}
			})
		}
	default:
		tr.replica(did, "core.scenes_hot", func() { _, _ = e.VideoIndex().Scenes(nq.Scenes) })
	}
	tr.replica(sid, "dlse.page", func() { _, err = full.Page(cursor, limit) })
	return err
}

// ---------------------------------------------------------------- section B

// formProbes runs a fixed set of ops of every query form through a cached
// server twice: the first pass misses, the second hits.
func (p *inproc) formProbes(ranked *rankedStream) error {
	var ops []op
	for i := 0; i < 3*probeOps; i++ {
		o := ranked.atLane(1_000_000+i, i%3) // probeOps of each lane, whatever the seed draws
		ops = append(ops, o)
		kw := mustQuery(o)["kw"][0]
		switch o.class {
		case classLexical:
			p.lexTexts = append(p.lexTexts, kw)
		case classVector:
			p.vecTexts = append(p.vecTexts, kw)
		}
	}
	pool := newContentMix(p.r.cfg.seed).pool
	combined := 0
	for _, q := range pool {
		if strings.HasPrefix(q, "q=") && combined < probeOps {
			ops = append(ops, op{query: q, pool: -1, class: -1})
			combined++
		}
	}
	for _, kind := range eventKinds {
		ops = append(ops, op{query: url.Values{"kind": {kind}, "limit": {"10"}}.Encode(), pool: -1, class: -1})
	}
	for _, o := range ops {
		p.keys = append(p.keys, o.query)
	}
	srv := repro.NewServer(p.dl, repro.ServerOptions{})
	for pass := 0; pass < 2; pass++ {
		for _, o := range ops {
			if err := p.tracedOp(srv, o, false); err != nil {
				return err
			}
		}
	}
	return p.replayMisses(srv.Engine())
}

func mustQuery(o op) url.Values {
	v, err := url.ParseQuery(o.query)
	if err != nil {
		panic(err) // the harness built the string itself
	}
	return v
}

// allocsOf runs fn and returns the heap objects and bytes it allocated.
func allocsOf(fn func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// allocCounts measures allocations per call at the dlse, ir, vec and core
// boundaries over the probe inputs (runtime.MemStats deltas; nothing else
// allocates in this process while it runs).
func (p *inproc) allocCounts() {
	e, ctx := p.e, context.Background()
	queries := make([]dlse.Query, len(p.keys))
	for i, k := range p.keys {
		queries[i], _, _, _, _ = serve.ParseSearchQuery(parse(op{query: k}))
	}
	objs, _ := allocsOf(func() {
		for _, q := range queries {
			_, _ = e.SearchAll(ctx, q, false)
		}
	})
	p.r.out.set("dlse.allocs_per_search", objs/float64(len(queries)), len(queries))
	objs, _ = allocsOf(func() {
		for _, t := range p.lexTexts {
			_, _, _ = e.TextIndex().Search(t, 0)
		}
	})
	p.r.out.set("ir.allocs_per_search", objs/float64(len(p.lexTexts)), len(p.lexTexts))
	objs, _ = allocsOf(func() {
		for _, t := range p.vecTexts {
			_, _, _ = e.VecIndex().Search(t, 0)
		}
	})
	p.r.out.set("vec.allocs_per_search", objs/float64(len(p.vecTexts)), len(p.vecTexts))
	const rounds = 10
	_, bytes := allocsOf(func() {
		for i := 0; i < rounds; i++ {
			for _, kind := range eventKinds {
				_, _ = e.VideoIndex().Scenes(kind)
			}
		}
	})
	p.r.out.set("core.scenes_bytes_per_call", bytes/float64(rounds*len(eventKinds)), rounds*len(eventKinds))
}

// ---------------------------------------------------------------- section C

// countingFS counts the mutations the durability layer makes through fsx.
type countingFS struct {
	fsx.FS
	writes, syncs, bytes atomic.Int64
}

type countingFile struct {
	fsx.File
	fs *countingFS
}

func (f countingFile) Write(b []byte) (int, error) {
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(len(b)))
	return f.File.Write(b)
}

func (f countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

func (c *countingFS) wrap(f fsx.File, err error) (fsx.File, error) {
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

func (c *countingFS) Create(name string) (fsx.File, error)     { return c.wrap(c.FS.Create(name)) }
func (c *countingFS) OpenAppend(name string) (fsx.File, error) { return c.wrap(c.FS.OpenAppend(name)) }
func (c *countingFS) CreateTemp(dir, pattern string) (fsx.File, error) {
	return c.wrap(c.FS.CreateTemp(dir, pattern))
}
func (c *countingFS) SyncDir(dir string) error {
	c.syncs.Add(1)
	return c.FS.SyncDir(dir)
}

// ingestProbe walks one fixed batch of commit-pool videos through every
// layer of the ingest path, each layer called on its own through its
// exported functions.
func (p *inproc) ingestProbe(paths []string) error {
	tr, ctx, r := p.tr, context.Background(), p.r
	engine, err := fde.NewTennisEngine(fde.DefaultTennisConfig())
	if err != nil {
		return err
	}
	for _, path := range paths[:ingestSamples] {
		var frames []*repro.Image
		var meta vidfmt.Meta
		tr.in("vidfmt.read_svf", func() { frames, meta, err = vidfmt.ReadFile(path) })
		if err != nil {
			return err
		}
		v := core.Video{Name: vidfmt.BaseName(path), Path: path,
			Width: meta.Width, Height: meta.Height, FPS: meta.FPS, Frames: meta.Frames}
		tr.in("fde.process", func() { _, err = engine.Process(v, frames) })
		if err != nil {
			return err
		}
		tr.in("pipeline.index_video", func() {
			var in *pipeline.Ingestor
			if in, err = pipeline.New(engine, pipeline.Config{Workers: 1}); err != nil {
				return
			}
			if _, err = in.Run(ctx, []pipeline.Job{pipeline.SVFJob(path, "")}); err != nil {
				return
			}
			var idx *core.MetaIndex
			if idx, err = core.NewMetaIndex(); err == nil {
				_, err = in.MergeInto(idx)
			}
		})
		if err != nil {
			return err
		}
	}

	// The log alone: one fsynced append per commit, payload shaped like the
	// library's own path-job record.
	log, _, err := wal.Open(filepath.Join(r.cfg.workDir, "probe-log"), fsx.OS)
	if err != nil {
		return err
	}
	for i, path := range paths {
		name := vidfmt.BaseName(path)
		rec := binary.LittleEndian.AppendUint32(nil, 1)
		rec = append(rec, 1)
		rec = binary.LittleEndian.AppendUint32(rec, uint32(len(name)))
		rec = append(rec, name...)
		rec = binary.LittleEndian.AppendUint32(rec, uint32(len(path)))
		rec = append(rec, path...)
		tr.in("wal.append", func() { _, err = log.Append(wal.KindCommit, fmt.Sprintf("p-%d", i), rec) })
		if err != nil {
			return err
		}
	}
	if err := log.Close(); err != nil {
		return err
	}

	// Indexing alone: Library.Commit, no log, no engine.
	bare, err := repro.LoadLibraryFile(r.files.meta)
	if err != nil {
		return err
	}
	for _, path := range paths {
		tr.in("library.commit", func() {
			_, err = bare.Commit(ctx, []repro.IngestJob{{Path: path}}, repro.BatchOptions{})
		})
		if err != nil {
			return err
		}
	}

	// The whole durable commit: CommitToken over a WAL on a counting
	// filesystem, then the first scene read on the new snapshot.
	cfs := &countingFS{FS: fsx.OS}
	walDir := filepath.Join(r.cfg.workDir, "probe-wal")
	w, err := repro.OpenWALFS(walDir, cfs)
	if err != nil {
		return err
	}
	open := func() (*repro.Library, error) { return repro.LoadLibraryFile(r.files.meta) }
	lib, _, err := w.LoadBase(open)
	if err != nil {
		return err
	}
	dl, err := repro.NewDigitalLibraryWith(r.corpus.site, lib, p.opts)
	if err != nil {
		return err
	}
	dl.AttachWAL(w)
	srv := repro.NewServer(dl, repro.ServerOptions{})
	var writes, syncs, bytes int64
	for i, path := range paths {
		w0, s0, b0 := cfs.writes.Load(), cfs.syncs.Load(), cfs.bytes.Load()
		tr.in("library.commit_token", func() {
			_, err = dl.CommitToken(ctx, fmt.Sprintf("t-%d", i), []repro.IngestJob{{Path: path}}, repro.BatchOptions{})
		})
		if err != nil {
			return err
		}
		writes += cfs.writes.Load() - w0
		syncs += cfs.syncs.Load() - s0
		bytes += cfs.bytes.Load() - b0
		vi := srv.Engine().VideoIndex()
		tr.in("core.view_build", func() { _, err = vi.Scenes("rally") })
		tr.in("core.scenes_hot", func() { _, err = vi.Scenes("rally") })
		if err != nil {
			return err
		}
		if i+1 == ingestProbe/2 {
			tr.in("wal.checkpoint", func() { err = dl.CheckpointWAL() })
			if err != nil {
				return err
			}
		}
	}
	commits := float64(len(paths))
	r.out.set("fsx.writes_per_commit", float64(writes)/commits, len(paths))
	r.out.set("fsx.fsyncs_per_commit", float64(syncs)/commits, len(paths))
	r.out.set("wal.bytes_per_commit", float64(bytes)/commits, len(paths))

	var before, after countingWriter
	if err := lib.SaveIndex(&before); err != nil {
		return err
	}
	tr.in("library.compact", func() { _, err = dl.Compact(segmentTarget) })
	if err != nil {
		return err
	}
	tr.in("core.save_segfile", func() { err = lib.SaveIndex(&after) })
	if err != nil {
		return err
	}
	// Compaction leaves the base segment (already at the target) alone and
	// rewrites the one-video segments into merged ones: everything but the
	// base file's bytes.
	base, err := os.Stat(r.files.meta)
	if err != nil {
		return err
	}
	r.out.set("library.compact_bytes_rewritten", float64(after.n-base.Size()), 1)

	// Crash recovery of the log: reopen, load the checkpoint's snapshot,
	// replay the commits logged after it.
	if err := w.Close(); err != nil {
		return err
	}
	w2, err := repro.OpenWAL(walDir)
	if err != nil {
		return err
	}
	defer w2.Close()
	lib2, _, err := w2.LoadBase(open)
	if err != nil {
		return err
	}
	if got, want := w2.Pending(), ingestProbe-ingestProbe/2; got != want {
		return fmt.Errorf("probe WAL holds %d pending records, want %d", got, want)
	}
	tr.in("wal.replay", func() { _, err = w2.Replay(ctx, lib2) })
	return err
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(b []byte) (int, error) {
	c.n += int64(len(b))
	return len(b), nil
}

// ---------------------------------------------------------------- section D

// tracedSource is an in-process segment source that times every call the
// router makes to it. The router calls its sources from several goroutines,
// so calls are collected under a lock and attached to the router's span
// once it has returned.
type tracedSource struct {
	*transport.Local
	name string
	p    *inproc
	mu   *sync.Mutex
	legs *[]leg
}

type leg struct {
	name       string
	start, end int64
}

func (s *tracedSource) Addr() string { return s.name }

func (s *tracedSource) record(name string, start int64) {
	end := s.p.tr.now()
	s.mu.Lock()
	*s.legs = append(*s.legs, leg{name, start, end})
	s.mu.Unlock()
}

func (s *tracedSource) Manifest(ctx context.Context) (transport.Manifest, error) {
	defer s.record("transport.manifest", s.p.tr.now())
	return s.Local.Manifest(ctx)
}

func (s *tracedSource) Partial(ctx context.Context, q transport.Query, sel transport.Sel, gen int64) (*transport.Partial, error) {
	defer s.record("transport.partial_local", s.p.tr.now())
	return s.Local.Partial(ctx, q, sel, gen)
}

// routerOps sends n ranked ops, from index `from` of the stream, through a
// router over two in-process sources of the one engine. Untraced, it goes
// through the router's real handler; traced, it brackets parse, Router.Search
// (its legs attached beneath) and encode. Either way it returns the summed
// time of the requests in microseconds.
func (p *inproc) routerOps(ranked *rankedStream, from, n int, untraced bool) (sumUs float64, err error) {
	tr, ctx := p.tr, context.Background()
	var mu sync.Mutex
	var legs []leg
	engine := p.e
	var srcs []transport.SegmentSource
	for _, name := range []string{"local-a", "local-b"} {
		srcs = append(srcs, &tracedSource{
			Local: transport.NewLocal(func() *dlse.Engine { return engine }),
			name:  name, p: p, mu: &mu, legs: &legs,
		})
	}
	// No timers in the router: hedging off, as in the ranked-cluster workload.
	rt, err := router.NewWithSources(srcs, router.Options{Replicas: 2, HedgeAfter: -1})
	if err != nil {
		return 0, err
	}
	for i := from; i < from+n; i++ {
		o := ranked.at(i)
		req, rec := parse(o), httptest.NewRecorder()
		if untraced {
			t0 := time.Now()
			rt.ServeHTTP(rec, req)
			us := float64(time.Since(t0)) / 1e3
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("in-process router %s: status %d", o.query, rec.Code)
			}
			p.plain[o.class] = append(p.plain[o.class], us)
			sumUs += us
			continue
		}
		var (
			q      dlse.Query
			cursor dlse.Cursor
			limit  int
			rs     *dlse.ResultSet
		)
		legs = legs[:0]
		tr.nextRequest()
		root := tr.begin("request")
		pid := tr.in("serve.parse", func() { q, cursor, limit, _, err = serve.ParseSearchQuery(req) })
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		rid := tr.begin("router.search")
		rs, _, err = rt.Search(ctx, q, cursor, limit)
		tr.end(rid)
		if err != nil {
			return 0, fmt.Errorf("in-process router %s: %w", o.query, err)
		}
		eid := tr.in("serve.encode", func() { serve.WriteSearchResult(rec, rs, false, false, time.Since(t0)) })
		tr.end(root)
		for _, l := range legs {
			tr.add(rid, l.name, l.start, l.end)
			if l.name == "transport.partial_local" {
				p.legs++
			}
		}
		p.routed++
		sumUs += float64(tr.spans[root].End-tr.spans[root].Start) / 1e3
		if p.sectionA {
			p.recordStages(o.class, root, pid, rid, eid, rec.Body.Len())
			if i%sampleEvery == 0 {
				if err := p.compareWithHandler(rt, o, rec.Body.Bytes()); err != nil {
					return 0, err
				}
			}
		}
	}
	return sumUs, nil
}

// countingTransport counts the response bytes of the requests it carries.
type countingTransport struct {
	bytes atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		resp.Body = countingBody{resp.Body, &t.bytes}
	}
	return resp, err
}

// remoteProbe reads keyword partials over every text segment from the live
// first node, as a router leg does, and the same partials in process.
func (p *inproc) remoteProbe(ranked *rankedStream) error {
	ct := &countingTransport{}
	rem := transport.NewRemote(p.r.nodes[0].url, &http.Client{Transport: ct})
	var sel transport.Sel
	for o := 0; o < textSegments; o++ {
		sel.Text = append(sel.Text, o)
	}
	for i := 0; i < remoteProbeOps; i++ {
		q := transport.Query{Keyword: mustQuery(ranked.at(3_000_000 + 3*i))["kw"][0]}
		var err error
		p.tr.in("transport.partial_remote", func() { _, err = rem.Partial(context.Background(), q, sel, -1) })
		if err != nil {
			return err
		}
	}
	p.r.out.set("transport.partial_bytes", float64(ct.bytes.Load())/remoteProbeOps, remoteProbeOps)
	return nil
}
