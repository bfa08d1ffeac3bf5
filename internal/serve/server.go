package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dlse"
	"repro/internal/segfile"
)

// Options tunes a Server.
type Options struct {
	// CacheSize is the query-result cache capacity in entries, probation
	// and protected segments together (see cache). 0 selects the default
	// (1024); negative disables caching entirely.
	CacheSize int
	// Workers, when > 0, bounds how many queries execute concurrently;
	// excess requests wait (or fail when their context is cancelled).
	// Cache hits are served without taking a slot. <= 0 means unbounded.
	Workers int
}

// Server answers digital-library queries over one shared engine snapshot.
// It is safe for concurrent use: engines are immutable at serving time, the
// snapshot pointer is atomic, and the cache is internally synchronized.
// Results handed out may be shared with other callers — treat them as
// read-only.
//
// The engine can be replaced at runtime with Swap: requests in flight keep
// the snapshot they started on (engines are immutable, so they finish
// correctly), new requests see the new snapshot, and the result cache can
// never serve an answer computed on a superseded snapshot — entries are
// tagged with the snapshot ID of the engine that computed them.
type Server struct {
	engine    atomic.Pointer[dlse.Engine]
	reloader  atomic.Pointer[func(context.Context) (*dlse.Engine, error)]
	committer atomic.Pointer[func(context.Context, []string, string) error]
	compactor atomic.Pointer[func(context.Context, int) (bool, error)]
	cache     *cache[*dlse.ResultSet] // nil when caching is disabled
	sem       chan struct{}
	mux       *http.ServeMux
	start     time.Time

	// Serving counters, exported (with live gauges) on /metrics in
	// Prometheus text format and on /debug/vars as JSON.
	metrics     *Registry
	queries     *Counter
	lexicalQ    *Counter
	vectorQ     *Counter
	hybridQ     *Counter
	commits     *Counter
	compactions *Counter
	partials    *Counter
	deepens     *Counter // re-executions deepening a cached ranked prefix
}

// New builds a Server over an engine.
func New(engine *dlse.Engine, opts Options) *Server {
	reg := NewRegistry()
	s := &Server{
		start:       time.Now(),
		metrics:     reg,
		queries:     reg.Counter("queries"),
		lexicalQ:    reg.Counter("queries_lexical"),
		vectorQ:     reg.Counter("queries_vector"),
		hybridQ:     reg.Counter("queries_hybrid"),
		commits:     reg.Counter("commits"),
		compactions: reg.Counter("compactions"),
		partials:    reg.Counter("partials"),
		deepens:     reg.Counter("cache_deepens"),
	}
	s.engine.Store(engine)
	if opts.CacheSize >= 0 {
		s.cache = newCache[*dlse.ResultSet](opts.CacheSize, 8)
	}
	if opts.Workers > 0 {
		s.sem = make(chan struct{}, opts.Workers)
	}
	reg.GaugeFunc("cache_entries", func() float64 { e, _, _ := s.CacheStats(); return float64(e) })
	reg.GaugeFunc("cache_hits", func() float64 { _, h, _ := s.CacheStats(); return float64(h) })
	reg.GaugeFunc("cache_misses", func() float64 { _, _, m := s.CacheStats(); return float64(m) })
	// How much ranking the cache retains: answer items held across entries.
	reg.GaugeFunc("cache_items", func() float64 {
		n := 0
		if s.cache != nil {
			s.cache.Each(func(rs *dlse.ResultSet) { n += rs.Held() })
		}
		return float64(n)
	})
	reg.GaugeFunc("active_segments", func() float64 {
		return float64(s.engine.Load().VideoIndex().NumSegments())
	})
	// Of those, the segments decoded into the heap: a mapped segment decodes
	// at its first read, which only a scene or combined query makes.
	reg.GaugeFunc("segments_hydrated", func() float64 {
		video, n := s.engine.Load().VideoIndex(), 0
		for i := range video.NumSegments() {
			if video.Hydrated(i) {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("heap_live_bytes", HeapLiveBytes)
	// The segfiles the process holds open: page-lane caches and meta-index
	// files, each counted once per mapping.
	reg.GaugeFunc("mapped_bytes", func() float64 { return float64(segfile.MappedBytes()) })
	// The process's scene-view builds: a Part builds its view once and keeps
	// it, so the count never falls, across Swap too.
	reg.CounterFunc("sceneview_builds", core.ViewBuilds)
	reg.GaugeFunc("generation", func() float64 {
		return float64(s.engine.Load().VideoIndex().Generation())
	})
	reg.GaugeFunc("snapshot", func() float64 { return float64(s.engine.Load().Snapshot()) })
	reg.GaugeFunc("uptime_sec", func() float64 { return time.Since(s.start).Seconds() })
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", reg.HandleProm)
	s.mux.HandleFunc("/debug/vars", reg.HandleJSON)
	s.mux.HandleFunc("/v2/search", s.handleV2Search)
	s.mux.HandleFunc("/v2/reload", s.handleV2Reload)
	s.mux.HandleFunc("/v2/commit", s.handleV2Commit)
	s.mux.HandleFunc("/v2/compact", s.handleV2Compact)
	s.mux.HandleFunc("/v2/partial", s.handleV2Partial)
	s.mux.HandleFunc("/v2/manifest", s.handleV2Manifest)
	return s
}

// Engine returns the current engine snapshot.
func (s *Server) Engine() *dlse.Engine { return s.engine.Load() }

// Swap atomically installs a new engine snapshot, then purges the result
// cache. In-flight queries finish against the snapshot they started on;
// subsequent requests (and cache tags) see the new one. The purge is eager —
// even unpurged entries could never be served, since every lookup is tagged
// with the new engine's snapshot ID. Nothing else is carried over: the
// scene-view build count is the process's own (core.ViewBuilds).
func (s *Server) Swap(engine *dlse.Engine) {
	s.engine.Store(engine)
	s.InvalidateCache()
}

// SetReloader installs the callback POST /v2/reload uses to build a
// replacement engine (e.g. re-reading a meta-index file). The server swaps
// to the returned engine on success. A callback that installs the engine
// itself (e.g. a library-level swap that fans out to every registered
// server) may return a nil engine: the endpoint then reports the server's
// current snapshot.
func (s *Server) SetReloader(fn func(context.Context) (*dlse.Engine, error)) {
	s.reloader.Store(&fn)
}

// SetCommitter installs the callback POST /v2/commit uses to ingest new
// videos (by path) into the library behind this server. The callback is
// expected to install the extended engine snapshot itself — the facade's
// DigitalLibrary.Commit swaps every registered server — so the endpoint
// reports the snapshot current after it returns. token is the request's
// idempotency token ("" when the client sent none); a WAL-backed
// committer deduplicates repeats of a token it has already logged.
func (s *Server) SetCommitter(fn func(ctx context.Context, paths []string, token string) error) {
	s.committer.Store(&fn)
}

// SetCompactor installs the callback POST /v2/compact uses to merge index
// segments down toward a target videos-per-segment size (target <= 0 means
// one segment). Like the committer, the callback installs the compacted
// snapshot itself; the bool reports whether the segment set changed.
func (s *Server) SetCompactor(fn func(ctx context.Context, target int) (bool, error)) {
	s.compactor.Store(&fn)
}

// Metrics returns the registry behind /metrics and /debug/vars. Subsystems
// with their own counters (the WAL, say) register them on it once at wiring
// time.
func (s *Server) Metrics() *Registry { return s.metrics }

// InvalidateCache drops every cached result, keeping each key as a ghost so
// a query asked again goes straight back to the protected segment. Swap does
// not strictly need it — entries are snapshot-tagged and a stale entry can
// never be served — but purging eagerly frees the memory.
func (s *Server) InvalidateCache() {
	if s.cache != nil {
		s.cache.Purge()
	}
}

// CacheStats reports cache entry count and cumulative hits/misses
// (all zero when caching is disabled).
func (s *Server) CacheStats() (entries int, hits, misses int64) {
	if s.cache == nil {
		return 0, 0, 0
	}
	hits, misses = s.cache.Stats()
	return s.cache.Len(), hits, misses
}

// acquire takes a worker slot when the server is bounded.
func (s *Server) acquire(ctx context.Context) error {
	if s.sem == nil {
		return nil
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() {
	if s.sem != nil {
		<-s.sem
	}
}

// Search answers a unified query with cursor pagination, consulting the
// cache. What is cached, under the query's canonical key, is the result set
// of one execution — the whole answer of a combined or scene query, the
// ranked prefix plus exact total of a ranked lane (see dlse.ResultSet) — so
// every page of a walk hits the same entry. A page the entry holds reports
// cached; a cursor walking past the held prefix deepens the entry in place
// (a re-execution on its snapshot, counted in dl_cache_deepens_total, under
// a worker slot like any execution) and reports not cached. Explain
// requests bypass the cache: an explain describes an execution, so one is
// performed. The bool reports whether the answer came from the cache.
//
// A miss takes a worker slot, executes to the depth the page needs, and
// stores the result tagged with the snapshot ID of the engine it ran
// against: engines are immutable, so the tag names exactly the index state
// that computed the entry, and a Swap racing the execution can only leave
// an entry that never matches again.
func (s *Server) Search(ctx context.Context, q dlse.Query, cursor dlse.Cursor, limit int, explain bool) (*dlse.ResultSet, bool, error) {
	s.queries.Add(1)
	e := s.engine.Load()
	nq, key, err := e.Normalize(q)
	if err != nil {
		return nil, false, err
	}
	// Per-lane counters over the normalized form, so the lexical count
	// stays meaningful next to the vector/hybrid ones.
	switch {
	case nq.Keyword != "":
		s.lexicalQ.Add(1)
	case nq.Vector != "":
		s.vectorQ.Add(1)
	case nq.Hybrid != "":
		s.hybridQ.Add(1)
	}
	depth := dlse.Depth(cursor, limit)
	useCache := s.cache != nil && !explain
	var full *dlse.ResultSet
	hit := false
	if useCache {
		if full, hit = s.cache.Get(key, e.Snapshot()); hit {
			if held := full.Held(); held == full.Total || depth > 0 && held >= depth {
				rs, err := full.Page(cursor, limit)
				return rs, err == nil, err
			}
		}
	}
	if err := s.acquire(ctx); err != nil {
		return nil, false, err
	}
	defer s.release()
	if !hit {
		if full, err = e.SearchNormalized(ctx, nq, key, depth, explain); err != nil {
			return nil, false, err
		}
		if useCache {
			s.cache.Put(key, e.Snapshot(), full)
		}
	}
	rs, err := full.Page(cursor, limit)
	if hit && err == nil {
		s.deepens.Add(1) // the page re-executed the entry to the depth this cursor reached
	}
	return rs, false, err
}

// ---------------------------------------------------------------- HTTP

// JSON shapes of the HTTP API.
type (
	sceneJSON struct {
		Video      string  `json:"video"`
		Kind       string  `json:"kind"`
		Start      int     `json:"start"`
		End        int     `json:"end"`
		Confidence float64 `json:"confidence"`
	}
	healthResponse struct {
		Status       string  `json:"status"`
		UptimeSec    float64 `json:"uptimeSec"`
		Docs         int     `json:"docs"`
		Videos       int     `json:"videos"`
		Events       int     `json:"events"`
		Segments     int     `json:"segments"`
		Generation   int64   `json:"generation"`
		Snapshot     int64   `json:"snapshot"`
		CacheEntries int     `json:"cacheEntries"`
		CacheHits    int64   `json:"cacheHits"`
		CacheMisses  int64   `json:"cacheMisses"`
	}
)

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func toSceneJSON(scenes []core.Scene) []sceneJSON {
	out := make([]sceneJSON, len(scenes))
	for i, sc := range scenes {
		out[i] = sceneJSON{
			Video: sc.Video.Name, Kind: sc.Event.Kind,
			Start: sc.Event.Start, End: sc.Event.End,
			Confidence: sc.Event.Confidence,
		}
	}
	return out
}

// handleHealthz answers GET /healthz with liveness and index stats.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !OnlyMethod(w, r, http.MethodGet) {
		return
	}
	e := s.engine.Load()
	stats := e.VideoIndex().Stats()
	entries, hits, misses := s.CacheStats()
	writeJSON(w, http.StatusOK, healthResponse{
		Status:       "ok",
		UptimeSec:    time.Since(s.start).Seconds(),
		Docs:         e.TextIndex().Docs(),
		Videos:       stats.Videos,
		Events:       stats.Events,
		Segments:     e.VideoIndex().NumSegments(),
		Generation:   e.VideoIndex().Generation(),
		Snapshot:     e.Snapshot(),
		CacheEntries: entries,
		CacheHits:    hits,
		CacheMisses:  misses,
	})
}
