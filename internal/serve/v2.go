package serve

// The v2 HTTP surface: one /v2/search endpoint over the unified query
// type, with opaque page tokens, optional explain plans, and typed errors
// mapped to proper HTTP statuses; plus /v2/reload, the online-reindexing
// hook that hot-swaps the engine without dropping in-flight queries.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"time"

	"repro/internal/dlse"
	"repro/internal/ir"
	"repro/internal/transport"
)

// JSON shapes of the v2 HTTP API.
type (
	// v2Item mirrors dlse.Item: the fields set depend on the query form.
	v2Item struct {
		ObjectID int64       `json:"objectId,omitempty"`
		Class    string      `json:"class,omitempty"`
		Name     string      `json:"name,omitempty"`
		Score    float64     `json:"score,omitempty"`
		Scenes   []sceneJSON `json:"scenes,omitempty"`
		Page     string      `json:"page,omitempty"`
		Scene    *sceneJSON  `json:"scene,omitempty"`
	}
	v2KernelJSON struct {
		TermsMatched   int  `json:"termsMatched"`
		PostingsScored int  `json:"postingsScored"`
		DocsTouched    int  `json:"docsTouched"`
		Terminated     bool `json:"terminated"`
	}
	v2OpJSON struct {
		Op       string        `json:"op"`
		TookNs   int64         `json:"tookNs"`
		Items    int           `json:"items"`
		Kernel   *v2KernelJSON `json:"kernel,omitempty"`
		Segments []v2OpJSON    `json:"segments,omitempty"`
		View     string        `json:"view,omitempty"`
	}
	v2ExplainJSON struct {
		Plan string     `json:"plan"`
		Ops  []v2OpJSON `json:"ops"`
	}
	v2SearchResponse struct {
		Count    int            `json:"count"`
		Total    int            `json:"total"`
		Cached   bool           `json:"cached"`
		Partial  bool           `json:"partial,omitempty"`
		TookMs   float64        `json:"tookMs"`
		Snapshot int64          `json:"snapshot"`
		Cursor   string         `json:"cursor,omitempty"`
		Items    []v2Item       `json:"items"`
		Explain  *v2ExplainJSON `json:"explain,omitempty"`
	}
	v2ReloadResponse struct {
		Snapshot int64   `json:"snapshot"`
		Docs     int     `json:"docs"`
		Videos   int     `json:"videos"`
		TookMs   float64 `json:"tookMs"`
	}
	v2CommitRequest struct {
		Paths []string `json:"paths"`
		// Token optionally names the commit for idempotent retries: a
		// WAL-backed committer deduplicates batches whose token it has
		// already durably logged, so a client may safely resend after an
		// ambiguous failure (timeout, dropped connection mid-response).
		Token string `json:"token,omitempty"`
	}
	v2CommitResponse struct {
		Snapshot   int64   `json:"snapshot"`
		Segments   int     `json:"segments"`
		Videos     int     `json:"videos"`
		Generation int64   `json:"generation"`
		TookMs     float64 `json:"tookMs"`
	}
	v2CompactRequest struct {
		Target int `json:"target"`
	}
	v2CompactResponse struct {
		Changed    bool    `json:"changed"`
		Snapshot   int64   `json:"snapshot"`
		Segments   int     `json:"segments"`
		Generation int64   `json:"generation"`
		TookMs     float64 `json:"tookMs"`
	}
	v2ErrorResponse struct {
		Error string `json:"error"`
		Code  string `json:"code"`
		Pos   *int   `json:"pos,omitempty"`
	}
)

// v2Status maps the typed error taxonomy onto HTTP statuses and stable
// machine-readable codes. One mapping covers the whole v2 surface — search,
// partial reads, and the admin endpoints — so every failure renders the same
// {error,code,pos} envelope with consistent 4xx/5xx classes.
func v2Status(err error) (int, string) {
	switch {
	case errors.Is(err, dlse.ErrParse):
		return http.StatusBadRequest, "parse"
	case errors.Is(err, dlse.ErrBadCursor):
		return http.StatusBadRequest, "bad_cursor"
	case errors.Is(err, ir.ErrEmptyQry):
		return http.StatusBadRequest, "empty_query"
	case errors.Is(err, transport.ErrBadSelection):
		return http.StatusBadRequest, "bad_segment"
	case errors.Is(err, transport.ErrStale):
		return http.StatusConflict, "stale_generation"
	case errors.Is(err, dlse.ErrUnknownConcept):
		return http.StatusUnprocessableEntity, "unknown_concept"
	case errors.Is(err, dlse.ErrNoIndex):
		return http.StatusNotFound, "no_index"
	case errors.Is(err, fs.ErrNotExist):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, transport.ErrUnavailable):
		return http.StatusServiceUnavailable, "unavailable"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, "unavailable"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeV2Error renders a typed error with status, code, and (for query
// errors) the byte position of the problem.
func writeV2Error(w http.ResponseWriter, err error) {
	status, code := v2Status(err)
	resp := v2ErrorResponse{Error: err.Error(), Code: code}
	var qe *dlse.QueryError
	if errors.As(err, &qe) && qe.Pos >= 0 {
		pos := qe.Pos
		resp.Pos = &pos
	}
	writeJSON(w, status, resp)
}

// WriteSearchError renders a failure of the v2 surface in the typed
// {error,code,pos} envelope with its mapped status — exported so dlrouter
// emits byte-identical errors to dlserve.
func WriteSearchError(w http.ResponseWriter, err error) { writeV2Error(w, err) }

// OnlyMethod admits a request made with method and refuses any other with
// 405, an Allow header and the v2 {error, code:"method"} envelope: every
// endpoint of nodes and routers alike answers a wrong method this way.
func OnlyMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeJSON(w, http.StatusMethodNotAllowed, v2ErrorResponse{
			Error: fmt.Sprintf("method %s not allowed", r.Method), Code: "method",
		})
		return false
	}
	return true
}

// adminUnconfigured reports an admin endpoint whose callback is not
// installed: 501 with a stable code naming the missing hook.
func adminUnconfigured(w http.ResponseWriter, what string) {
	writeJSON(w, http.StatusNotImplemented, v2ErrorResponse{
		Error: "no " + what + " configured", Code: "no_" + what,
	})
}

// parseLimitStrict parses a count parameter strictly: only plain unsigned
// decimal digits are accepted. Signs, spaces, hex, floats, and overflowing
// values all report a parse error (mapped to 400) instead of being silently
// defaulted or misread.
func parseLimitStrict(name, s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	if len(s) > 9 {
		return 0, &dlse.QueryError{Kind: dlse.ErrParse, Pos: -1,
			Msg: fmt.Sprintf("%s %q out of range", name, s)}
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, &dlse.QueryError{Kind: dlse.ErrParse, Pos: -1,
				Msg: fmt.Sprintf("bad %s %q: not an unsigned decimal", name, s)}
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, nil
}

// ParseSearchQuery extracts the /v2/search parameters — query form, cursor,
// limit, explain — shared by dlserve's handler and dlrouter's, so both
// surfaces accept and reject requests identically. A non-numeric or
// negative limit is a parse error, never a silent default.
//
// When kw= is present, kind= selects the retrieval lane instead of naming
// an event kind: lexical (the default), vector (embedding similarity), or
// hybrid (reciprocal-rank fusion of both). Any other kind value keeps its
// scene-lookup meaning, so kw=...&kind=net-play still reports the usual
// one-form-only parse error.
func ParseSearchQuery(r *http.Request) (q dlse.Query, cursor dlse.Cursor, limit int, explain bool, err error) {
	params := r.URL.Query()
	q = dlse.Query{
		Source:  params.Get("q"),
		Keyword: params.Get("kw"),
		Scenes:  params.Get("kind"),
	}
	if q.Keyword != "" {
		switch q.Scenes {
		case "", "lexical":
			q.Scenes = ""
		case "vector":
			q.Vector, q.Keyword, q.Scenes = q.Keyword, "", ""
		case "hybrid":
			q.Hybrid, q.Keyword, q.Scenes = q.Keyword, "", ""
		}
	}
	limit, err = parseLimitStrict("limit", params.Get("limit"))
	if err != nil {
		return q, "", 0, false, err
	}
	explain = params.Get("explain") == "1" || params.Get("explain") == "true"
	return q, dlse.Cursor(params.Get("cursor")), limit, explain, nil
}

// WriteSearchResult renders a v2 search answer — exported so dlrouter
// emits the same JSON shape as dlserve (the cluster smoke test diffs the
// two). partial marks a fail-open answer missing unreachable segments;
// dlserve itself always serves complete answers.
func WriteSearchResult(w http.ResponseWriter, rs *dlse.ResultSet, cached, partial bool, took time.Duration) {
	writeJSON(w, http.StatusOK, v2SearchResponse{
		Count:    len(rs.Items),
		Total:    rs.Total,
		Cached:   cached,
		Partial:  partial,
		TookMs:   float64(took.Microseconds()) / 1000,
		Snapshot: rs.Snapshot,
		Cursor:   string(rs.Cursor),
		Items:    toV2Items(rs.Items),
		Explain:  toV2Explain(rs.Explain),
	})
}

func toV2Items(items []dlse.Item) []v2Item {
	out := make([]v2Item, len(items))
	for i, it := range items {
		v := v2Item{Score: it.Score, Page: it.Page}
		if it.Object != nil {
			v.ObjectID = it.Object.ID
			v.Class = it.Object.Class
			v.Name = it.Object.StringAttr("name")
		}
		if len(it.Scenes) > 0 {
			v.Scenes = toSceneJSON(it.Scenes)
		}
		if it.Scene != nil {
			sc := it.Scene
			v.Scene = &sceneJSON{
				Video: sc.Video.Name, Kind: sc.Event.Kind,
				Start: sc.Event.Start, End: sc.Event.End,
				Confidence: sc.Event.Confidence,
			}
		}
		out[i] = v
	}
	return out
}

func toV2Op(op dlse.OpStat) v2OpJSON {
	j := v2OpJSON{Op: op.Op, TookNs: op.Duration.Nanoseconds(), Items: op.Items, View: op.View}
	if op.Kernel != nil {
		j.Kernel = &v2KernelJSON{
			TermsMatched:   op.Kernel.TermsMatched,
			PostingsScored: op.Kernel.PostingsScored,
			DocsTouched:    op.Kernel.DocsTouched,
			Terminated:     op.Kernel.Terminated,
		}
	}
	for _, seg := range op.Segments {
		j.Segments = append(j.Segments, toV2Op(seg))
	}
	return j
}

func toV2Explain(ex *dlse.Explain) *v2ExplainJSON {
	if ex == nil {
		return nil
	}
	out := &v2ExplainJSON{Plan: ex.Plan, Ops: make([]v2OpJSON, len(ex.Ops))}
	for i, op := range ex.Ops {
		out.Ops[i] = toV2Op(op)
	}
	return out
}

// handleV2Search answers GET /v2/search with exactly one of:
//
//	q=<query language>            — combined conceptual/content/text query
//	kw=<terms>                    — flattened-pages keyword baseline
//	kw=<terms>&kind=vector        — embedding-similarity search over the pages
//	kw=<terms>&kind=hybrid        — keyword ‖ vector, fused by RRF
//	kind=<event kind>             — raw scene lookup
//
// plus optional limit=<page size>, cursor=<opaque token from a previous
// page>, and explain=1.
func (s *Server) handleV2Search(w http.ResponseWriter, r *http.Request) {
	if !OnlyMethod(w, r, http.MethodGet) {
		return
	}
	q, cursor, limit, explain, err := ParseSearchQuery(r)
	if err != nil {
		writeV2Error(w, err)
		return
	}
	start := time.Now()
	rs, cached, err := s.Search(r.Context(), q, cursor, limit, explain)
	if err != nil {
		writeV2Error(w, err)
		return
	}
	WriteSearchResult(w, rs, cached, false, time.Since(start))
}

// handleV2Reload answers POST /v2/reload: it rebuilds the engine through
// the configured reloader and hot-swaps it in. Queries in flight finish on
// the snapshot they started with; the response carries the new snapshot's
// identity. Without a reloader the endpoint reports 501.
func (s *Server) handleV2Reload(w http.ResponseWriter, r *http.Request) {
	if !OnlyMethod(w, r, http.MethodPost) {
		return
	}
	fn := s.reloader.Load()
	if fn == nil {
		adminUnconfigured(w, "reloader")
		return
	}
	start := time.Now()
	engine, err := (*fn)(r.Context())
	if err != nil {
		writeV2Error(w, fmt.Errorf("reload: %w", err))
		return
	}
	if engine != nil {
		s.Swap(engine)
	} else {
		// The reloader installed the engine itself (library-level swap);
		// report whatever is serving now.
		engine = s.Engine()
	}
	stats := engine.VideoIndex().Stats()
	writeJSON(w, http.StatusOK, v2ReloadResponse{
		Snapshot: engine.Snapshot(),
		Docs:     engine.TextIndex().Docs(),
		Videos:   stats.Videos,
		TookMs:   float64(time.Since(start).Microseconds()) / 1000,
	})
}

// handleV2Commit answers POST /v2/commit with a JSON body naming SVF files
// to ingest:
//
//	{"paths": ["/data/new-broadcast.svf", ...]}
//
// The configured committer ingests them into a brand-new index segment and
// installs the extended engine snapshot (existing segments untouched, no
// full reload); the response reports the post-commit serving state.
// Without a committer the endpoint reports 501.
func (s *Server) handleV2Commit(w http.ResponseWriter, r *http.Request) {
	if !OnlyMethod(w, r, http.MethodPost) {
		return
	}
	fn := s.committer.Load()
	if fn == nil {
		adminUnconfigured(w, "committer")
		return
	}
	var req v2CommitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, v2ErrorResponse{
			Error: fmt.Sprintf("bad commit body: %v", err), Code: "parse",
		})
		return
	}
	if len(req.Paths) == 0 {
		writeJSON(w, http.StatusBadRequest, v2ErrorResponse{
			Error: "commit body names no paths", Code: "parse",
		})
		return
	}
	start := time.Now()
	if err := (*fn)(r.Context(), req.Paths, req.Token); err != nil {
		writeV2Error(w, fmt.Errorf("commit: %w", err))
		return
	}
	s.commits.Add(1)
	engine := s.Engine()
	vi := engine.VideoIndex()
	writeJSON(w, http.StatusOK, v2CommitResponse{
		Snapshot:   engine.Snapshot(),
		Segments:   vi.NumSegments(),
		Videos:     vi.Stats().Videos,
		Generation: vi.Generation(),
		TookMs:     float64(time.Since(start).Microseconds()) / 1000,
	})
}

// handleV2Compact answers POST /v2/compact with an optional JSON body:
//
//	{"target": 64}
//
// The configured compactor merges adjacent segments whose combined video
// count stays within target (absent or <= 0 merges everything into one
// segment) and installs the compacted snapshot; answers are identical
// before and after, only the partitioning changes. Without a compactor the
// endpoint reports 501.
func (s *Server) handleV2Compact(w http.ResponseWriter, r *http.Request) {
	if !OnlyMethod(w, r, http.MethodPost) {
		return
	}
	fn := s.compactor.Load()
	if fn == nil {
		adminUnconfigured(w, "compactor")
		return
	}
	var req v2CompactRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, v2ErrorResponse{
			Error: fmt.Sprintf("bad compact body: %v", err), Code: "parse",
		})
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, v2ErrorResponse{
				Error: fmt.Sprintf("bad compact body: %v", err), Code: "parse",
			})
			return
		}
	}
	start := time.Now()
	changed, err := (*fn)(r.Context(), req.Target)
	if err != nil {
		writeV2Error(w, fmt.Errorf("compact: %w", err))
		return
	}
	if changed {
		s.compactions.Add(1)
	}
	engine := s.Engine()
	vi := engine.VideoIndex()
	writeJSON(w, http.StatusOK, v2CompactResponse{
		Changed:    changed,
		Snapshot:   engine.Snapshot(),
		Segments:   vi.NumSegments(),
		Generation: vi.Generation(),
		TookMs:     float64(time.Since(start).Microseconds()) / 1000,
	})
}

// RenderItems converts a page of items to the v2 JSON encoding — exported
// for cmd/dlsearch's -json output so CLI and daemon emit the same shape.
func RenderItems(items []dlse.Item) ([]byte, error) {
	return json.MarshalIndent(toV2Items(items), "", "  ")
}
