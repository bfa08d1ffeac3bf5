package vec

import (
	"fmt"
	"sync"

	"repro/internal/ir"
	"repro/internal/segset"
)

// segment is one part of a composition: a builder's documents at their
// global DocID base.
type segment struct {
	b    *Builder
	base ir.DocID

	// scratch recycles the per-query score arrays — the lexical kernel's
	// accumulator, so both lanes select and rank-count with one code.
	scratch sync.Pool
}

// Segments is a scatter-gather reader over vector segments — the vec
// mirror of ir.Segments. Composition only assigns global DocID bases,
// contiguously in part order: a score depends on nothing but the query and
// the document, and hits merge under one total order, so there is no
// union-corpus state to freeze. A Segments is immutable after NewSegments;
// any number of goroutines may search it.
type Segments struct {
	emb   Embedder
	segs  []*segment
	bases segset.Bases
}

// SearchStats reports the work one vector query performed.
type SearchStats struct {
	// DocsScanned counts scored documents across all scanned segments.
	DocsScanned int
}

// SegStat is one segment's contribution to a scatter: its kernel stats
// and the wall time of its scan.
type SegStat = segset.Leg[SearchStats]

// NewSegments composes builders into a scatter-gather reader in O(parts):
// parts receive contiguous global DocID bases in order and no vector is
// read. The same documents composed under any partitioning answer every
// query byte-identically (locked by TestVecSegmentsParity).
func NewSegments(e Embedder, parts []*Builder) (*Segments, error) {
	if e == nil {
		return nil, fmt.Errorf("vec: nil embedder")
	}
	s := &Segments{emb: e}
	sizes := make([]int, len(parts))
	for i, b := range parts {
		if b == nil {
			return nil, fmt.Errorf("vec: nil part %d", i)
		}
		if b.Dim() != e.Dim() {
			return nil, fmt.Errorf("vec: part %d dim %d does not match embedder dim %d", i, b.Dim(), e.Dim())
		}
		sizes[i] = b.Len()
	}
	s.bases = segset.NewBases(sizes)
	for i, b := range parts {
		sg := &segment{b: b, base: ir.DocID(s.bases.Start(i))}
		sg.scratch.New = func() any { return ir.NewAccum(sg.b.Len(), &sg.scratch) }
		s.segs = append(s.segs, sg)
	}
	return s, nil
}

// dot accumulates in float64 with one fixed summation order, so a
// score's bits depend only on the two vectors.
func dot(a, b []float32) float64 {
	var sum float64
	for i := range a {
		sum += float64(a[i]) * float64(b[i])
	}
	return sum
}

// Docs returns the union document count.
func (s *Segments) Docs() int { return s.bases.Total() }

// Dim returns the embedding dimension.
func (s *Segments) Dim() int { return s.emb.Dim() }

// Embedder returns the embedding scheme the reader was composed with.
func (s *Segments) Embedder() Embedder { return s.emb }

// embedQuery embeds and validates a query, analysing it once: a query with
// no indexable tokens reports ir.ErrEmptyQry exactly like the lexical lane.
func (s *Segments) embedQuery(query string) ([]float32, error) {
	toks := ir.Analyze(query)
	if len(toks) == 0 {
		return nil, ir.ErrEmptyQry
	}
	return s.emb.EmbedTokens(toks), nil
}

// score scores every document of sg, in one pass over its row-major
// matrix, into a pooled dense array, which comes back still leased.
func (sg *segment) score(q []float32) *ir.Accum {
	ac := sg.scratch.Get().(*ir.Accum)
	ac.Begin()
	for i := 0; i < sg.b.Len(); i++ {
		ac.Add(ir.DocID(i), dot(q, sg.b.Vec(i)))
	}
	return ac
}

// scan is score plus the selection of the best k under the global total
// order (score desc, DocID asc; k <= 0 keeps every document), resolving
// names only for the survivors. The scored array comes back still leased:
// the caller releases or holds it.
func (sg *segment) scan(q []float32, k int) ([]ir.Hit, *ir.Accum) {
	ac := sg.score(q)
	hits := ac.TopK(k)
	for i := range hits {
		hits[i].Name = sg.b.Name(int(hits[i].Doc))
		hits[i].Doc += sg.base
	}
	return hits, ac
}

// searchOrds is the lane's one scatter-gather body: scan the named
// segments and merge their hits under the global total order, capped at k
// (k <= 0 ranks every scanned document). A non-nil hold takes over every
// leg's score array, by ordinal, still leased; otherwise the legs release
// them.
func (s *Segments) searchOrds(query string, k int, ords []int, hold []*ir.Accum) ([]ir.Hit, SearchStats, []SegStat, error) {
	if err := segset.Check(len(s.segs), ords...); err != nil {
		return nil, SearchStats{}, nil, err
	}
	q, err := s.embedQuery(query)
	if err != nil {
		return nil, SearchStats{}, nil, err
	}
	per := make([][]ir.Hit, len(ords))
	legs := segset.Scatter(ords, func(slot, ord int) SearchStats {
		hits, ac := s.segs[ord].scan(q, k)
		per[slot] = hits
		scanned := ac.Touched()
		if hold != nil {
			hold[ord] = ac
		} else {
			ac.Release()
		}
		return SearchStats{DocsScanned: scanned}
	})
	var stats SearchStats
	for _, l := range legs {
		stats.DocsScanned += l.Stats.DocsScanned
	}
	return ir.MergeHits(per, k), stats, legs, nil
}

// Search scores every document against the query and returns the top k
// hits under the global (score desc, DocID asc) total order; k <= 0 ranks
// every document.
func (s *Segments) Search(query string, k int) ([]ir.Hit, SearchStats, error) {
	hits, stats, _, err := s.searchOrds(query, k, s.bases.Ords(), nil)
	return hits, stats, err
}

// SearchScores is Search that also leaves the query's scores leased — the
// vec mirror of ir.Segments.SearchScores: the top k hits, plus a handle
// over every scanned document's score for a rank fusion to place the
// lexical lane's candidates in this one. The caller must Release it.
func (s *Segments) SearchScores(query string, k int) ([]ir.Hit, ir.SegScores, SearchStats, []SegStat, error) {
	acs := make([]*ir.Accum, len(s.segs))
	hits, stats, legs, err := s.searchOrds(query, k, s.bases.Ords(), acs)
	if err != nil {
		return nil, ir.SegScores{}, SearchStats{}, nil, err
	}
	return hits, ir.LeaseScores(s.bases, acs), stats, legs, nil
}

// ScoreSegments scores the segments named by ords without ranking them and
// returns the leased handle over their scores — what a rank lookup counts
// over: its Ranks place documents among what the selection scored, and a
// document of an unselected segment ranks 0. The caller must Release it.
func (s *Segments) ScoreSegments(query string, ords []int) (ir.SegScores, error) {
	if err := segset.Check(len(s.segs), ords...); err != nil {
		return ir.SegScores{}, err
	}
	q, err := s.embedQuery(query)
	if err != nil {
		return ir.SegScores{}, err
	}
	acs := make([]*ir.Accum, len(s.segs))
	segset.Scatter(ords, func(_, ord int) struct{} {
		acs[ord] = s.segs[ord].score(q)
		return struct{}{}
	})
	return ir.LeaseScores(s.bases, acs), nil
}

// SearchSegments is Search over only the segments named by ords (a
// distributed node's placement; nil names them all), plus per-segment
// scatter stats for explain plans. The gather layer's k-way merge of
// partial answers reproduces the full Search byte for byte.
func (s *Segments) SearchSegments(query string, k int, ords []int) ([]ir.Hit, SearchStats, []SegStat, error) {
	if ords == nil {
		ords = s.bases.Ords()
	}
	return s.searchOrds(query, k, ords, nil)
}
