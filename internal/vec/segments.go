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
	emb   *HashEmbedder
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
// part i takes the global DocIDs pages gives it, and no vector is read. The
// page lanes share one partition, so the engine passes the text lane's;
// part i must hold exactly the documents of pages' part i. Hits carry no
// names: the text lane, which numbers the same pages alike, names the ones
// a caller returns (ir.Segments.Name). The same documents composed under
// any partitioning answer every query byte-identically (locked by
// TestVecSegmentsParity).
func NewSegments(e *HashEmbedder, parts []*Builder, pages segset.Bases) (*Segments, error) {
	if e == nil {
		return nil, fmt.Errorf("vec: nil embedder")
	}
	if pages.Parts() != len(parts) {
		return nil, fmt.Errorf("vec: %d parts for a partition of %d", len(parts), pages.Parts())
	}
	s := &Segments{emb: e, bases: pages}
	for i, b := range parts {
		if b == nil {
			return nil, fmt.Errorf("vec: nil part %d", i)
		}
		if b.Dim() != e.Dim() {
			return nil, fmt.Errorf("vec: part %d dim %d does not match embedder dim %d", i, b.Dim(), e.Dim())
		}
		if want := pages.Start(i+1) - pages.Start(i); b.Len() != want {
			return nil, fmt.Errorf("vec: part %d holds %d documents, its partition %d", i, b.Len(), want)
		}
	}
	for i, b := range parts {
		sg := &segment{b: b, base: ir.DocID(s.bases.Start(i))}
		sg.scratch.New = func() any { return ir.NewAccum(sg.b.Len(), &sg.scratch) }
		s.segs = append(s.segs, sg)
	}
	return s, nil
}

// Docs returns the union document count.
func (s *Segments) Docs() int { return s.bases.Total() }

// Embedder returns the embedding scheme the reader was composed with.
func (s *Segments) Embedder() *HashEmbedder { return s.emb }

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
	switch c := sg.b.codes.vals.(type) {
	case []int8:
		scoreRows8(ac, q, c, sg.b.scale)
	case []int16:
		scoreRowsFrom(ac, q, c, sg.b.scale, 0)
	case []int32:
		scoreRowsFrom(ac, q, c, sg.b.scale, 0)
	}
	return ac
}

// i8f holds float32(c) for every int8 code c, indexed by its byte. A load
// from it is faster than converting the integer, whose instruction writes
// part of a register and so waits on the register's last writer.
var i8f = func() (t [256]float32) {
	for b := range t {
		t[b] = float32(int8(uint8(b)))
	}
	return t
}()

// scoreRows8 scores each row of an int8 matrix against q into ac. A row's
// score is the float64 sum, in coordinate order, of q[j] times its stored
// coordinate float32(float32(code)·scale): the explicit conversion rounds
// the product to float32, as the embedding was, and forbids fusing it into
// the sum. A one-row sum is a chain of dependent adds, so the scan scores
// four rows per pass with four independent sums, each in the same order as
// a one-row pass; the tail rows take the one-row path.
func scoreRows8(ac *ir.Accum, q []float32, codes []int8, scale []float32) {
	dim := len(q)
	i := 0
	for ; i+4 <= len(scale); i += 4 {
		d0, d1, d2, d3 := dot4(q, codes[i*dim:(i+4)*dim], scale[i:i+4])
		ac.Add(ir.DocID(i), d0)
		ac.Add(ir.DocID(i+1), d1)
		ac.Add(ir.DocID(i+2), d2)
		ac.Add(ir.DocID(i+3), d3)
	}
	scoreRowsFrom(ac, q, codes, scale, i)
}

// dot4 returns q's scores against the four rows of rows, whose scales are
// scale[0:4]. It is a call of its own so that its loop keeps every operand
// in a register.
func dot4(q []float32, rows []int8, scale []float32) (d0, d1, d2, d3 float64) {
	dim := len(q)
	r0, r1, r2, r3 := rows[:dim], rows[dim:][:dim], rows[2*dim:][:dim], rows[3*dim:][:dim]
	s0, s1, s2, s3 := scale[0], scale[1], scale[2], scale[3]
	for j, x := range q {
		qx := float64(x)
		d0 += qx * float64(float32(i8f[uint8(r0[j])]*s0))
		d1 += qx * float64(float32(i8f[uint8(r1[j])]*s1))
		d2 += qx * float64(float32(i8f[uint8(r2[j])]*s2))
		d3 += qx * float64(float32(i8f[uint8(r3[j])]*s3))
	}
	return d0, d1, d2, d3
}

// scoreRowsFrom scores rows from, from+1, … of codes against q into ac,
// one row per pass, to the same bits as scoreRows8: the path of the tail
// rows, and of the rare int16 and int32 matrices.
func scoreRowsFrom[T int8 | int16 | int32](ac *ir.Accum, q []float32, codes []T, scale []float32, from int) {
	dim := len(q)
	for i := from; i < len(scale); i++ {
		r, s := codes[i*dim:][:dim], scale[i]
		var d float64
		for j, x := range q {
			d += float64(x) * float64(float32(float32(r[j])*s))
		}
		ac.Add(ir.DocID(i), d)
	}
}

// scan is score plus the selection of the best k under the global total
// order (score desc, DocID asc; k <= 0 keeps every document). The scored
// array comes back still leased: the caller releases or holds it.
func (sg *segment) scan(q []float32, k int) ([]ir.Hit, *ir.Accum) {
	ac := sg.score(q)
	hits := ac.TopK(k)
	for i := range hits {
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
