package dlse

// The query surface: one composable Search entrypoint over a unified Query
// type, returning a ResultSet with deterministic cursor pagination, a
// pull-based streaming iterator, and optional explain plans.
//
// Pagination is deterministic by construction: the planner's merge is a
// stable sort over operator outputs produced in fixed order, and every
// ranked lane is a total order, so the answer list of a query is a pure
// function of the engine snapshot. A page is a slice of that list; a cursor
// is (query key, offset, snapshot) encoded as an opaque token. Walking every
// page therefore reproduces the unpaginated answer byte for byte on the same
// snapshot. The ranked lanes build the list only as deep as a page needs: a
// ResultSet holds that prefix plus the exact total, and re-executes on its
// snapshot when asked for more (see answer).

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/webspace"
)

// Query is the unified v2 request: the query-language string, the
// structured combined request, the keyword baseline, the vector and
// hybrid retrieval lanes, and the raw scene lookup in one type. Exactly
// one of the six fields must be set.
type Query struct {
	// Source is a combined query in the demo query language, parsed
	// against the site schema.
	Source string
	// Request is a pre-built structured combined query.
	Request *Request
	// Keyword is the flattened-pages keyword baseline: ranked BM25
	// retrieval over page text, no concepts, no video content.
	Keyword string
	// Vector ranks by embedding similarity over the vector lane: every
	// page, cosine-scored against the query's embedding (see internal/vec).
	Vector string
	// Hybrid runs the Keyword and Vector lanes on the same text and
	// fuses their rankings by reciprocal rank fusion (FuseRRF).
	Hybrid string
	// Scenes looks up all indexed video scenes of this event kind.
	Scenes string
}

// forms counts how many request forms are set.
func (q Query) forms() int {
	n := 0
	if q.Source != "" {
		n++
	}
	if q.Request != nil {
		n++
	}
	if q.Keyword != "" {
		n++
	}
	if q.Vector != "" {
		n++
	}
	if q.Hybrid != "" {
		n++
	}
	if q.Scenes != "" {
		n++
	}
	return n
}

// Item is one answer of a v2 Search. Which fields are set depends on the
// query form:
//
//   - combined queries (Source/Request): Object, Score, Scenes
//   - keyword queries: Page, Doc, Score
//   - vector/hybrid queries: Page, Doc, Score (Page is the matched site
//     page; Doc is its doc ID, the same in both ranked lanes)
//   - scene queries: Scene
type Item struct {
	// Object is the concept object a combined query selected.
	Object *webspace.Object
	// Score is the relevance: BM25 for combined/keyword results, cosine
	// similarity for vector results, RRF score for hybrid results.
	Score float64
	// Scenes are the video scenes joined onto a combined result.
	Scenes []core.Scene
	// Page names the matching document of a keyword/vector/hybrid hit;
	// Doc is its doc ID.
	Page string
	Doc  ir.DocID
	// Scene is one answer of a scene query.
	Scene *core.Scene
}

// searchOpts collects the functional options of Search.
type searchOpts struct {
	limit   int
	cursor  Cursor
	explain bool
}

// SearchOption tunes one Search call.
type SearchOption func(*searchOpts)

// WithLimit sets the page size: at most n items are returned and the
// ResultSet carries a cursor to the remainder. n <= 0 (the default)
// returns the whole answer.
func WithLimit(n int) SearchOption { return func(o *searchOpts) { o.limit = n } }

// WithCursor resumes a paginated walk from a cursor returned by an earlier
// Search of the same query. The empty cursor starts from the beginning.
func WithCursor(c Cursor) SearchOption { return func(o *searchOpts) { o.cursor = c } }

// WithExplain attaches the planner's operator DAG with per-operator wall
// times and kernel stats to the ResultSet.
func WithExplain() SearchOption { return func(o *searchOpts) { o.explain = true } }

// Cursor is an opaque resume token for paginated Search. It is stable
// across identical engine snapshots: the same query walked by cursor pages
// reproduces the unpaginated answer exactly. A cursor presented with a
// different query fails with ErrBadCursor. Cursors remain usable across a
// hot swap; the continued walk reflects the current snapshot (identical
// snapshots yield identical pages).
type Cursor string

// encodeCursor packs (query key, offset, snapshot) into an opaque token.
func encodeCursor(key uint64, offset int, snap int64) Cursor {
	buf := make([]byte, 0, 3*binary.MaxVarintLen64)
	buf = binary.AppendUvarint(buf, key)
	buf = binary.AppendUvarint(buf, uint64(offset))
	buf = binary.AppendVarint(buf, snap)
	return Cursor(base64.RawURLEncoding.EncodeToString(buf))
}

// cursorEncoding is strict base64: tokens with non-canonical trailing
// bits are rejected instead of aliasing to a valid cursor, so every
// decodable token is exactly the one the encoder minted (found by
// FuzzCursor's round-trip check).
var cursorEncoding = base64.RawURLEncoding.Strict()

// decodeCursor unpacks a token; any malformation reports ErrBadCursor.
func decodeCursor(c Cursor) (key uint64, offset int, snap int64, err error) {
	raw, err := cursorEncoding.DecodeString(string(c))
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%w: %v", ErrBadCursor, err)
	}
	key, n := binary.Uvarint(raw)
	if n <= 0 {
		return 0, 0, 0, fmt.Errorf("%w: truncated key", ErrBadCursor)
	}
	raw = raw[n:]
	off, n := binary.Uvarint(raw)
	if n <= 0 {
		return 0, 0, 0, fmt.Errorf("%w: truncated offset", ErrBadCursor)
	}
	raw = raw[n:]
	snap, n = binary.Varint(raw)
	if n <= 0 || n != len(raw) {
		return 0, 0, 0, fmt.Errorf("%w: truncated snapshot", ErrBadCursor)
	}
	const maxOffset = 1 << 40 // far beyond any in-memory answer list
	if off > maxOffset {
		return 0, 0, 0, fmt.Errorf("%w: offset out of range", ErrBadCursor)
	}
	return key, int(off), snap, nil
}

// OpStat is one explain entry: an executed planner operator (or the merge
// stage), its wall time, and how many rows it produced.
type OpStat struct {
	// Op names the operator: "concept", "video", "text", "keyword",
	// "vector", "rrf", "scenes", or "merge".
	Op string
	// Duration is the operator's wall time, always > 0 for an operator
	// that executed.
	Duration time.Duration
	// Items counts the rows the operator produced (documents touched for
	// text operators).
	Items int
	// Kernel carries the IR scoring kernel's work counters for text and
	// keyword operators, nil otherwise.
	Kernel *ir.SearchStats
	// Segments holds per-index-segment scatter stats when the operator
	// fanned out across a segmented index (one entry per segment, e.g.
	// "video[0]", "text[1]"); empty for single-segment execution.
	Segments []OpStat
	// View reports whether a scene operator answered from the frozen
	// columnar view ("cached") or had to rebuild it first ("rebuilt");
	// empty for operators that do not read the view.
	View string
}

// Explain is the introspection payload of a Search: the compiled plan and
// one entry per executed operator plus the final merge.
type Explain struct {
	// Plan renders the operator DAG, e.g. "[concept ‖ video ‖ text] → merge".
	Plan string
	// Ops holds per-operator stats in plan priority order, merge last.
	Ops []OpStat
}

// ResultSet is the answer of a v2 Search: one page of items plus the
// pagination state to fetch the rest.
type ResultSet struct {
	// Items is this page of the answer.
	Items []Item
	// Total is the number of items in the full (unpaginated) answer.
	Total int
	// Cursor resumes the walk after this page; empty when the answer is
	// exhausted.
	Cursor Cursor
	// Snapshot identifies the engine snapshot that computed the answer.
	Snapshot int64
	// Explain is the operator introspection payload (only with
	// WithExplain).
	Explain *Explain

	// key is the FNV-1a hash of the query's canonical key, binding cursors
	// to their query. ans/offset back Page.
	key    uint64
	ans    *answer
	offset int
}

// answer is what every page and stream of one execution share: the ranked
// prefix built so far and the exact size of the whole. Asked for more than
// it holds, it re-executes on its snapshot to the depth needed or twice what
// it has, whichever is more — a walk or stream re-ranks O(log pages) times,
// and what a cache retains is the depth somebody read, not the corpus.
type answer struct {
	total int
	// more re-executes to at least depth items; nil when the prefix is all
	// there is to serve (the whole answer, or a gathered one).
	more func(depth int) []Item
	// text names a ranked answer's items, which are held unnamed, in each
	// page cut from them (named); nil when the items need no names.
	text *ir.Segments

	mu    sync.Mutex
	items []Item // replaced on deepening, never written in place
}

// upTo returns the prefix, deepened first if it holds fewer than need items.
func (a *answer) upTo(need int) []Item {
	a.mu.Lock()
	defer a.mu.Unlock()
	need = min(need, a.total)
	if have := len(a.items); need > have && a.more != nil {
		a.items = a.more(min(max(need, 2*have), a.total))
	}
	return a.items
}

// named returns a copy of a page of the answer's items with their pages
// named, all names in one buffer, or the page itself when the items need no
// names, so that what a cache retains holds no names.
func (a *answer) named(page []Item) []Item {
	if a.text == nil {
		return page
	}
	page = append([]Item(nil), page...)
	a.text.Name(len(page), func(i int) ir.DocID { return page[i].Doc }, func(i int, name string) { page[i].Page = name })
	return page
}

// Held reports how many items of the answer the set's shared prefix holds
// right now — Total once everything has been ranked.
func (rs *ResultSet) Held() int { return len(rs.ans.upTo(0)) }

// Depth is how deep an answer must be ranked to cut the page (cursor, limit)
// from it: offset plus limit, or 0 — everything — for an unlimited page.
// Both are client input, so the sum saturates (the lanes clamp it to the
// documents they have); a malformed cursor counts as offset 0 and is left
// for Page to report.
func Depth(c Cursor, limit int) int {
	if limit <= 0 {
		return 0
	}
	_, offset, _, _ := decodeCursor(c)
	if offset > math.MaxInt-limit {
		return math.MaxInt
	}
	return offset + limit
}

// Normalize resolves a query into executable form — the Source text is
// parsed into its structured Request — and returns the canonical cache key
// of the retrieval it denotes. Two queries with the same retrieval
// semantics normalize to the same key; serving-layer caches key on it.
func (e *Engine) Normalize(q Query) (Query, string, error) {
	switch n := q.forms(); {
	case n == 0:
		return q, "", parseErr(-1, "empty query: set one of Source, Request, Keyword, Vector, Hybrid, Scenes")
	case n > 1:
		return q, "", parseErr(-1, "ambiguous query: set exactly one of Source, Request, Keyword, Vector, Hybrid, Scenes")
	}
	switch {
	case q.Source != "":
		req, err := ParseRequest(e.space.Schema(), q.Source)
		if err != nil {
			return q, "", err
		}
		return Query{Request: &req}, "q|" + req.CanonicalKey(), nil
	case q.Request != nil:
		return q, "q|" + q.Request.CanonicalKey(), nil
	}
	key, _ := CanonicalKey(q) // the one form set is schema-free
	return q, key, nil
}

// CanonicalKey returns the canonical cache key of a query that needs no
// schema to normalize — the Keyword, Vector, Hybrid, and Scenes forms.
// ok is false for the Source and Request forms, which require an
// engine's schema (see Engine.Normalize). It is the key Normalize returns
// for these forms, so cursors minted by a distributed gather layer
// (internal/router) over this key bind to the same query as the
// engine's own.
func CanonicalKey(q Query) (key string, ok bool) {
	if q.forms() != 1 {
		return "", false
	}
	switch {
	case q.Keyword != "":
		return "kw|" + strings.Join(ir.Analyze(q.Keyword), " "), true
	case q.Vector != "":
		return "vec|" + strings.Join(ir.Analyze(q.Vector), " "), true
	case q.Hybrid != "":
		return "hy|" + strings.Join(ir.Analyze(q.Hybrid), " "), true
	case q.Scenes != "":
		return "sc|" + q.Scenes, true
	}
	return "", false
}

// NewResultSet assembles a ResultSet from an externally gathered answer —
// the hook a distributed gather layer (internal/router) uses to get the
// engine's exact pagination semantics (cursor binding, Page) over items
// merged outside a single Engine. items is the prefix the gather fetched,
// total the size of the whole answer; such a set cannot deepen, so a page
// or stream running past the prefix ends there (the page with a cursor to
// gather deeper for). key must be the query's canonical key
// (Engine.Normalize or CanonicalKey); snap identifies the snapshot.
func NewResultSet(items []Item, total int, key string, snap int64) *ResultSet {
	return &ResultSet{
		Items:    items,
		Total:    total,
		Snapshot: snap,
		key:      fnv64(key),
		ans:      &answer{items: items, total: total},
	}
}

// fnv64 hashes a canonical key for embedding in cursors.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// SearchAll executes a query and returns its full, unpaginated ResultSet:
// every ranked lane at depth 0. Most callers want Search. Keyword queries
// whose text has no indexable terms return ir.ErrEmptyQry unwrapped.
func (e *Engine) SearchAll(ctx context.Context, q Query, withExplain bool) (*ResultSet, error) {
	nq, key, err := e.Normalize(q)
	if err != nil {
		return nil, err
	}
	rs, err := e.SearchNormalized(ctx, nq, key, 0, withExplain)
	if err != nil {
		return nil, err
	}
	// rs becomes the whole page.
	if err := rs.cut(rs, "", 0); err != nil {
		return nil, err
	}
	return rs, nil
}

// SearchNormalized executes a query a caller already holds in normal form
// with its canonical key (both as Normalize returned them) — the serving
// layer, which needs the key for its cache lookup before it knows whether
// anything has to execute. depth bounds the ranked lanes (see Depth; 0 ranks
// everything): the set holds that prefix and the exact Total, and deepens
// when read past it. Combined and scene answers are always whole, and the set
// carries them in Items; a ranked set's Items are empty, because its items
// are named only in the pages cut from it (Page).
func (e *Engine) SearchNormalized(ctx context.Context, nq Query, key string, depth int, withExplain bool) (*ResultSet, error) {
	rs := &ResultSet{Snapshot: e.snap, key: fnv64(key)}
	var items []Item
	var err error
	switch {
	case nq.Request != nil:
		if items, rs.Explain, err = e.run(ctx, e.Plan(*nq.Request), withExplain); err != nil {
			return nil, err
		}
		rs.ans = &answer{items: items, total: len(items)}
	case nq.Keyword != "", nq.Vector != "", nq.Hybrid != "":
		var total int
		if items, total, rs.Explain, err = e.rank(nq, depth, withExplain); err != nil {
			return nil, err // incl. ir.ErrEmptyQry, raw
		}
		rs.ans = &answer{items: items, total: total, text: e.text, more: func(depth int) []Item {
			// Cannot fail: this query already ran on this immutable snapshot.
			items, _, _, _ := e.rank(nq, depth, false)
			return items
		}}
		items = nil
	default:
		if e.video.Stats().Videos == 0 {
			return nil, fmt.Errorf("%w: scene query %q needs an indexed video library", ErrNoIndex, nq.Scenes)
		}
		var vb0 int64
		if withExplain {
			vb0 = e.video.ViewBuilds()
		}
		t0 := time.Now()
		scenes, err := e.video.Scenes(nq.Scenes)
		if err != nil {
			return nil, fmt.Errorf("dlse: scene query: %w", err)
		}
		items = make([]Item, len(scenes))
		for i := range scenes {
			items[i] = Item{Scene: &scenes[i]}
		}
		rs.ans = &answer{items: items, total: len(items)}
		if withExplain {
			rs.Explain = &Explain{Plan: "[scenes]", Ops: []OpStat{{
				Op: "scenes", Duration: clampDur(time.Since(t0)), Items: len(scenes),
				View: viewLabel(e.video.ViewBuilds() - vb0),
			}}}
		}
	}
	rs.Items = items
	rs.Total = rs.ans.total
	return rs, nil
}

// rank answers a Keyword, Vector or Hybrid query to the given depth: the
// best depth items (everything when depth <= 0 or beyond the lane) and the
// size of the whole answer — documents touched for the lexical lane, scanned
// for the vector lane, and for the hybrid their union, which is what the
// vector lane scanned: it scores every page. Explain operators report those
// matched counts, not returned ones. The items are unnamed: a page cut from
// them is named (answer.named).
func (e *Engine) rank(nq Query, depth int, withExplain bool) (items []Item, total int, ex *Explain, err error) {
	depth = max(depth, 0)
	t0 := time.Now()
	switch {
	case nq.Keyword != "":
		hits, stats, perSeg, err := e.text.Rank(nq.Keyword, depth, nil)
		if err != nil {
			return nil, 0, nil, err
		}
		if withExplain {
			op := textOpStat("keyword", time.Since(t0), stats.DocsTouched, stats, perSeg)
			ex = &Explain{Plan: "[keyword] → rank", Ops: []OpStat{op}}
		}
		return hitItems(hits), stats.DocsTouched, ex, nil
	case nq.Vector != "":
		hits, stats, perSeg, err := e.vecs.SearchSegments(nq.Vector, depth, nil)
		if err != nil {
			return nil, 0, nil, err
		}
		if withExplain {
			op := vecOpStat("vector", time.Since(t0), stats.DocsScanned, perSeg)
			ex = &Explain{Plan: "[vector] → rank", Ops: []OpStat{op}}
		}
		return hitItems(hits), stats.DocsScanned, ex, nil
	}
	// Hybrid: each lane to the depth an exact fusion of the top depth needs
	// (FuseDepths), its scores kept leased for the rank-count step.
	depth, laneDepth := FuseDepths(depth, e.vecs.Docs())
	lexHits, lexScores, lexStats, err := e.text.SearchScores(nq.Hybrid, laneDepth)
	if err != nil {
		return nil, 0, nil, err
	}
	defer lexScores.Release()
	tVec := time.Now()
	vecHits, vecScores, vecStats, vecSegs, err := e.vecs.SearchScores(nq.Hybrid, laneDepth)
	if err != nil {
		return nil, 0, nil, err
	}
	defer vecScores.Release()
	tFuse := time.Now()
	if depth == 0 {
		items = FuseRRF(hitItems(lexHits), hitItems(vecHits))
	} else {
		items = fuseTop(depth, lexHits, vecHits, lexScores, vecScores)
	}
	total = vecStats.DocsScanned
	if withExplain {
		lexOp := textOpStat("keyword", tVec.Sub(t0), lexStats.DocsTouched, lexStats, lexScores.SegmentStats())
		vecOp := vecOpStat("vector", tFuse.Sub(tVec), vecStats.DocsScanned, vecSegs)
		fuseOp := OpStat{Op: "rrf", Duration: clampDur(time.Since(tFuse)), Items: total}
		ex = &Explain{Plan: "[keyword ‖ vector] → rrf", Ops: []OpStat{lexOp, vecOp, fuseOp}}
	}
	return items, total, ex, nil
}

// Search is the unified v2 entrypoint: it executes the query (or, for a
// cursor resume, re-executes it against the current snapshot) to the depth
// the requested page needs and returns that page. A ResultSet is safe to
// share between goroutines: Page deepens its shared prefix under a lock,
// never in place.
func (e *Engine) Search(ctx context.Context, q Query, opts ...SearchOption) (*ResultSet, error) {
	var o searchOpts
	for _, opt := range opts {
		opt(&o)
	}
	nq, key, err := e.Normalize(q)
	if err != nil {
		return nil, err
	}
	rs, err := e.SearchNormalized(ctx, nq, key, Depth(o.cursor, o.limit), o.explain)
	if err != nil {
		return nil, err
	}
	// rs becomes the page.
	if err := rs.cut(rs, o.cursor, o.limit); err != nil {
		return nil, err
	}
	return rs, nil
}

// Page cuts one page out of the answer: the items from the cursor's offset
// (or this set's own start when the cursor is empty), capped at limit
// (limit <= 0 returns everything from the offset), re-executing first when
// the page runs past the prefix ranked so far. The returned set shares the
// underlying items and carries the cursor to the next page. A cursor minted
// for a different query fails with ErrBadCursor; an offset at or past the
// end (a shrunken answer, a forged cursor) yields an empty last page
// without ranking anything.
func (rs *ResultSet) Page(c Cursor, limit int) (*ResultSet, error) {
	page := new(ResultSet)
	if err := rs.cut(page, c, limit); err != nil {
		return nil, err
	}
	return page, nil
}

// cut makes page, which may be rs itself, the page (c, limit) of rs's answer
// (see Page).
func (rs *ResultSet) cut(page *ResultSet, c Cursor, limit int) error {
	offset, total, ans := rs.offset, rs.ans.total, rs.ans
	if c != "" {
		key, off, _, err := decodeCursor(c)
		if err != nil {
			return err
		}
		if key != rs.key {
			return fmt.Errorf("%w: cursor belongs to a different query", ErrBadCursor)
		}
		offset = off
	}
	offset = min(offset, total)
	end := total
	if limit > 0 && limit < total-offset {
		end = offset + limit
	}
	*page = ResultSet{
		Total:    total,
		Snapshot: rs.Snapshot,
		Explain:  rs.Explain,
		key:      rs.key,
		ans:      ans,
		offset:   offset,
	}
	if offset < end {
		items := ans.upTo(end)
		end = min(end, len(items)) // a gathered prefix may stop short of the page
		offset = min(offset, end)
		page.Items = ans.named(items[offset:end])
	}
	if end < total {
		page.Cursor = encodeCursor(page.key, end, page.Snapshot)
	}
	return nil
}
