package serve

// The partial-read HTTP surface backing remote segment access: GET
// /v2/manifest reports the segment sets this node serves, GET /v2/partial
// answers one partial query over an explicit segment selection. Both
// delegate to the shared transport helpers (ManifestOf, PartialOf), which
// is what makes a transport.Remote answer byte-identical to a
// transport.Local one over the same snapshot.

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/dlse"
	"repro/internal/ir"
	"repro/internal/transport"
)

// handleV2Manifest answers GET /v2/manifest with the current snapshot's
// segment sets — the placement input of the distributed router.
func (s *Server) handleV2Manifest(w http.ResponseWriter, r *http.Request) {
	if !OnlyMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, transport.ManifestOf(s.Engine()))
}

// parseCSV parses a CSV of non-negative integers ("0,2,5") — segment
// ordinals or document IDs, what says which. Strict digits only — anything
// else is a parse error, never silently dropped.
func parseCSV[T ~int | ~int32](name, what, s string) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	vals := make([]T, 0, len(parts))
	for _, p := range parts {
		v, err := parseLimitStrict(name, p)
		if err != nil || p == "" {
			return nil, &dlse.QueryError{Kind: dlse.ErrParse, Pos: -1,
				Msg: fmt.Sprintf("bad %s %q: want CSV of %s", name, s, what)}
		}
		vals = append(vals, T(v))
	}
	return vals, nil
}

// handleV2Partial answers GET /v2/partial — one partial query over an
// explicit segment selection:
//
//	kw=<terms>&k=<top-k>&text=<ordinal CSV>   — partial keyword search
//	vq=<terms>&k=<top-k>&text=<ordinal CSV>   — partial vector search (text
//	                                            ordinals select page-embedding
//	                                            segments)
//	kind=<event kind>&video=<ordinal CSV>     — partial scenes lookup
//	kw=|vq=<terms>&ranks=<doc ID CSV>&...     — rank lookup: each document's
//	                                            1-based rank among what the
//	                                            query scored over the
//	                                            selection, 0 for none
//	                                            ("ranks" in the answer, in
//	                                            the order asked); no k=, and
//	                                            at most the lane's documents
//	gen=<generation>                          — optional conditional read:
//	                                            409 stale_generation when the
//	                                            serving segment set moved
//
// Exactly one of kw/vq/kind must be set, and no ordinal twice (400
// bad_segment). A kw= or vq= leg reads its text ordinals; video= ordinals
// beside it are range-checked and otherwise ignored, so one with no text=
// ordinals is a 400 bad_segment. Scores are computed against union corpus
// statistics, so partial answers merge into results byte-identical to a
// monolithic search.
func (s *Server) handleV2Partial(w http.ResponseWriter, r *http.Request) {
	if !OnlyMethod(w, r, http.MethodGet) {
		return
	}
	params := r.URL.Query()
	q := transport.Query{
		Keyword: params.Get("kw"),
		Vector:  params.Get("vq"),
		Scenes:  params.Get("kind"),
	}
	k, err := parseLimitStrict("k", params.Get("k"))
	if err != nil {
		writeV2Error(w, err)
		return
	}
	q.K = k
	if q.Ranks, err = parseCSV[ir.DocID]("ranks", "document IDs", params.Get("ranks")); err != nil {
		writeV2Error(w, err)
		return
	}
	if q.Ranks != nil && params.Has("k") {
		writeV2Error(w, fmt.Errorf("%w: ranks= takes no k=", transport.ErrBadSelection))
		return
	}
	var sel transport.Sel
	if sel.Text, err = parseCSV[int]("text", "segment ordinals", params.Get("text")); err != nil {
		writeV2Error(w, err)
		return
	}
	if sel.Video, err = parseCSV[int]("video", "segment ordinals", params.Get("video")); err != nil {
		writeV2Error(w, err)
		return
	}
	expectGen := int64(-1)
	if g := params.Get("gen"); g != "" {
		expectGen, err = strconv.ParseInt(g, 10, 64)
		if err != nil || expectGen < 0 {
			writeV2Error(w, &dlse.QueryError{Kind: dlse.ErrParse, Pos: -1,
				Msg: fmt.Sprintf("bad gen %q: want a non-negative generation", g)})
			return
		}
	}
	p, err := transport.PartialOf(s.Engine(), q, sel, expectGen)
	if err != nil {
		writeV2Error(w, err)
		return
	}
	s.partials.Add(1)
	writeJSON(w, http.StatusOK, p)
}
