package transport

import (
	"context"
	"fmt"

	"repro/internal/dlse"
	"repro/internal/ir"
	"repro/internal/segset"
	"repro/internal/vec"
)

// Local is the in-process SegmentSource: partial reads against whatever
// engine snapshot the getter returns at call time. Wrapping a getter (not
// a fixed engine) keeps Local coherent with hot swaps — the serving layer
// passes its atomic snapshot loader, and every read pins one snapshot for
// its whole execution, exactly like the local query path.
type Local struct {
	engine func() *dlse.Engine
}

// NewLocal builds a Local source over an engine snapshot getter.
func NewLocal(engine func() *dlse.Engine) *Local {
	return &Local{engine: engine}
}

// Addr identifies the source.
func (l *Local) Addr() string { return "local" }

// Manifest reports the current snapshot's segment sets.
func (l *Local) Manifest(ctx context.Context) (Manifest, error) {
	return ManifestOf(l.engine()), nil
}

// ManifestOf builds the transport manifest of one engine snapshot —
// shared by Local and the /v2/manifest HTTP handler so both report
// identical placement inputs.
func ManifestOf(e *dlse.Engine) Manifest {
	vi := e.VideoIndex()
	m := Manifest{
		Generation:   vi.Generation(),
		Snapshot:     e.Snapshot(),
		TextSegments: e.TextIndex().NumSegments(),
		Docs:         e.TextIndex().Docs(),
	}
	for i, meta := range vi.Metas() {
		// Manifest-backed on lazy views: building the placement map must not
		// hydrate segments. The ordinal comes from Metas, so it is in range
		// and PartStats cannot fail.
		st, _ := vi.PartStats(i)
		videos := st.Videos
		m.Videos += videos
		m.Segments = append(m.Segments, SegmentInfo{
			ID: meta.ID, BaseVideo: meta.Base.Video, Videos: videos,
		})
	}
	return m
}

// Health reports nil: an in-process engine is always serving.
func (l *Local) Health(ctx context.Context) error { return nil }

// Partial answers one partial query against the current snapshot. See
// PartialOf.
func (l *Local) Partial(ctx context.Context, q Query, sel Sel, expectGen int64) (*Partial, error) {
	return PartialOf(l.engine(), q, sel, expectGen)
}

// PartialOf executes one partial query against a pinned engine snapshot —
// shared by Local and the /v2/partial HTTP handler, which is what makes
// Remote answers byte-identical to Local ones.
func PartialOf(e *dlse.Engine, q Query, sel Sel, expectGen int64) (*Partial, error) {
	vi := e.VideoIndex()
	if expectGen >= 0 && vi.Generation() != expectGen {
		return nil, fmt.Errorf("%w: have %d, want %d", ErrStale, vi.Generation(), expectGen)
	}
	p := &Partial{Generation: vi.Generation(), Snapshot: e.Snapshot()}
	forms := 0
	for _, set := range []bool{q.Keyword != "", q.Vector != "", q.Scenes != ""} {
		if set {
			forms++
		}
	}
	if forms != 1 {
		return nil, fmt.Errorf("%w: exactly one of Keyword, Vector, or Scenes must be set", ErrBadSelection)
	}
	// A placement naming a segment this snapshot lacks is a bad selection
	// whichever lane the query would have read. Both ranked lanes read text
	// ordinals; video ordinals beside them are checked and otherwise ignored.
	if err := segset.Check(e.TextIndex().NumSegments(), sel.Text...); err != nil {
		return nil, fmt.Errorf("%w: text selection: %v", ErrBadSelection, err)
	}
	if err := segset.Check(vi.NumSegments(), sel.Video...); err != nil {
		return nil, fmt.Errorf("%w: video selection: %v", ErrBadSelection, err)
	}
	var err error
	if len(q.Ranks) > 0 {
		if p.Ranks, err = rankLookup(e, q, sel.Text); err != nil {
			return nil, err
		}
		return p, nil
	}
	var hits []ir.Hit
	switch {
	case q.Keyword != "":
		if len(sel.Text) == 0 {
			return nil, fmt.Errorf("%w: keyword query selects no text segments", ErrBadSelection)
		}
		hits, p.Stats, _, err = e.TextIndex().SearchSegments(q.Keyword, q.K, sel.Text)
		p.Matched = p.Stats.DocsTouched
	case q.Vector != "":
		if len(sel.Text) == 0 {
			return nil, fmt.Errorf("%w: vector query selects no text segments", ErrBadSelection)
		}
		var stats vec.SearchStats
		hits, stats, _, err = e.VecIndex().SearchSegments(q.Vector, q.K, sel.Text)
		p.Matched = stats.DocsScanned
	case q.Scenes != "":
		if len(sel.Video) == 0 {
			return nil, fmt.Errorf("%w: scene query selects no video segments", ErrBadSelection)
		}
		if vi.Stats().Videos == 0 {
			return nil, fmt.Errorf("%w: scene query %q needs an indexed video library",
				dlse.ErrNoIndex, q.Scenes)
		}
		p.Groups = make([]SceneGroup, len(sel.Video))
		for i, o := range sel.Video {
			p.Groups[i].Seg = o
			if p.Groups[i].Scenes, err = vi.PartScenes(o, q.Scenes); err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, err // incl. ir.ErrEmptyQry, raw
	}
	// nil (not empty) when nothing matches, so a Partial is identical
	// whether it was computed in-process or round-tripped through the wire
	// format (omitempty drops empty hit lists).
	if len(hits) > 0 {
		p.Hits = make([]Hit, len(hits))
		for i, h := range hits {
			p.Hits[i] = Hit{Doc: h.Doc, Page: h.Name, Score: h.Score}
		}
	}
	return p, nil
}

// rankLookup answers a rank lookup (Query.Ranks): the lane scores the
// selection without ranking it, and the leased scores count each
// document's rank (ir.SegScores.Ranks) — the node's own rank-count step of
// the bounded hybrid fusion, asked for over the wire.
func rankLookup(e *dlse.Engine, q Query, ords []int) ([]int, error) {
	if q.K != 0 || q.Scenes != "" {
		return nil, fmt.Errorf("%w: a rank lookup takes a keyword or vector query and no K", ErrBadSelection)
	}
	lane := "keyword"
	if q.Vector != "" {
		lane = "vector"
	}
	if len(ords) == 0 {
		return nil, fmt.Errorf("%w: %s rank lookup selects no segments", ErrBadSelection, lane)
	}
	if docs := e.TextIndex().Docs(); len(q.Ranks) > docs {
		return nil, fmt.Errorf("%w: rank lookup of %d documents in a %s lane of %d",
			ErrBadSelection, len(q.Ranks), lane, docs)
	}
	cands := make([]ir.Hit, len(q.Ranks))
	for i, d := range q.Ranks {
		if d < 0 {
			return nil, fmt.Errorf("%w: rank lookup of document %d", ErrBadSelection, d)
		}
		cands[i].Doc = d
	}
	var scores ir.SegScores
	var err error
	if q.Vector != "" {
		scores, err = e.VecIndex().ScoreSegments(q.Vector, ords)
	} else {
		scores, _, err = e.TextIndex().ScoreSegments(q.Keyword, ords)
	}
	if err != nil {
		return nil, err // incl. ir.ErrEmptyQry, raw
	}
	defer scores.Release()
	return scores.Ranks(cands), nil
}
