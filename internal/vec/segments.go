package vec

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ir"
	"repro/internal/segset"
)

// maxCentroids caps the coarse codebook size.
const maxCentroids = 256

// Options tunes a Segments composition.
type Options struct {
	// Probes is the number of inverted lists a query scans, ranked by
	// centroid similarity. <= 0 probes every list: the scan is
	// exhaustive and byte-identical to SearchFlat — the serving
	// default, because the acceptance bar is exactness. Positive values
	// trade recall for scan cost; determinism across segmentations is
	// unaffected (the probe set depends only on query and codebook).
	Probes int
}

// segment is one frozen partition: a builder's documents plus the
// IVF assignment computed against the union codebook at composition.
type segment struct {
	b       *Builder
	base    ir.DocID
	listOff []uint32 // len = ncent+1, offsets into listDoc
	listDoc []int32  // local doc ordinals grouped by centroid, ascending within a list

	// scratch recycles the per-query score arrays — the lexical kernel's
	// accumulator, so both lanes select and rank-count with one code.
	scratch sync.Pool
}

// Segments is a scatter-gather reader over frozen vector segments — the
// vec mirror of ir.Segments. Composition freezes every part against
// union corpus state: global DocID bases are assigned contiguously in
// part order, and the coarse codebook is sampled from the union corpus
// in global document order, so neither list membership nor probe sets
// depend on how documents were partitioned. A Segments is immutable
// after NewSegments; any number of goroutines may search it.
type Segments struct {
	emb    Embedder
	segs   []*segment
	bases  segset.Bases
	cents  []float32 // ncent * dim, row-major
	ncent  int
	probes int
}

// SearchStats reports the work one vector query performed.
type SearchStats struct {
	// Probes counts the inverted lists selected for scanning (per
	// segment they are the same lists; this is the per-query count).
	Probes int
	// DocsScanned counts scored documents across all scanned segments.
	DocsScanned int
}

// SegStat is one segment's contribution to a scatter: its kernel stats
// and the wall time of its scan.
type SegStat = segset.Leg[SearchStats]

// NewSegments composes frozen builders into a scatter-gather reader.
// Parts receive contiguous global DocID bases in order. The same parts
// composed under any partitioning of the same union corpus answer every
// query byte-identically (locked by TestVecSegmentsParity).
func NewSegments(e Embedder, parts []*Builder, opts Options) (*Segments, error) {
	if e == nil {
		return nil, fmt.Errorf("vec: nil embedder")
	}
	s := &Segments{emb: e, probes: opts.Probes}
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
	s.buildCodebook(parts)
	for _, sg := range s.segs {
		s.freeze(sg)
	}
	return s, nil
}

// buildCodebook derives the coarse quantizer from the union corpus:
// ceil(sqrt(docs)) centroids (capped), each the embedding of the
// document at a fixed stride through the global order. The sample is a
// pure function of the union corpus — the same documents partitioned
// differently yield bit-identical centroids.
func (s *Segments) buildCodebook(parts []*Builder) {
	docs := s.Docs()
	if docs == 0 {
		return
	}
	n := 1
	for n*n < docs {
		n++
	}
	if n > maxCentroids {
		n = maxCentroids
	}
	if n > docs {
		n = docs
	}
	s.ncent = n
	dim := s.emb.Dim()
	s.cents = make([]float32, n*dim)
	for c := 0; c < n; c++ {
		ord, local := s.bases.Of(c * docs / n) // the c-th sample, in global doc order
		copy(s.cents[c*dim:(c+1)*dim], parts[ord].Vec(local))
	}
}

// assign returns v's centroid under the deterministic tie-break
// (similarity desc, centroid index asc).
func (s *Segments) assign(v []float32) int {
	best, bestDot := 0, dot(v, s.centroid(0))
	for c := 1; c < s.ncent; c++ {
		if d := dot(v, s.centroid(c)); d > bestDot {
			best, bestDot = c, d
		}
	}
	return best
}

// freeze computes sg's inverted lists against the union codebook —
// the per-segment freeze step. Within a list, documents stay in local
// ordinal order.
func (s *Segments) freeze(sg *segment) {
	n := sg.b.Len()
	sg.listOff = make([]uint32, s.ncent+1)
	sg.listDoc = make([]int32, n)
	if n == 0 || s.ncent == 0 {
		return
	}
	cent := make([]int32, n)
	counts := make([]uint32, s.ncent)
	for i := 0; i < n; i++ {
		c := s.assign(sg.b.Vec(i))
		cent[i] = int32(c)
		counts[c]++
	}
	for c, cnt := range counts {
		sg.listOff[c+1] = sg.listOff[c] + cnt
	}
	next := make([]uint32, s.ncent)
	copy(next, sg.listOff[:s.ncent])
	for i := 0; i < n; i++ {
		c := cent[i]
		sg.listDoc[next[c]] = int32(i)
		next[c]++
	}
}

func (s *Segments) centroid(c int) []float32 {
	dim := s.emb.Dim()
	return s.cents[c*dim : (c+1)*dim]
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

// NumSegments returns the partition count.
func (s *Segments) NumSegments() int { return len(s.segs) }

// Docs returns the union document count.
func (s *Segments) Docs() int { return s.bases.Total() }

// Dim returns the embedding dimension.
func (s *Segments) Dim() int { return s.emb.Dim() }

// Centroids returns the codebook size.
func (s *Segments) Centroids() int { return s.ncent }

// Embedder returns the embedding scheme the reader was composed with.
func (s *Segments) Embedder() Embedder { return s.emb }

// DocName resolves a global DocID to its document name.
func (s *Segments) DocName(d ir.DocID) (string, error) {
	if d < 0 || int(d) >= s.Docs() {
		return "", fmt.Errorf("vec: doc %d out of range [0,%d)", d, s.Docs())
	}
	ord, local := s.bases.Of(int(d))
	return s.segs[ord].b.Name(local), nil
}

// embedQuery embeds and validates a query: a query with no indexable
// tokens reports ir.ErrEmptyQry exactly like the lexical lane.
func (s *Segments) embedQuery(query string) ([]float32, error) {
	if len(ir.Analyze(query)) == 0 {
		return nil, ir.ErrEmptyQry
	}
	return s.emb.Embed(query), nil
}

// probeSet ranks centroids by (similarity desc, index asc) and returns
// the first probes of them (all when probes <= 0 or the codebook is
// smaller). The result is a pure function of query and codebook.
func (s *Segments) probeSet(q []float32, probes int) []int {
	order := make([]int, s.ncent)
	for i := range order {
		order[i] = i
	}
	if probes <= 0 || probes >= s.ncent {
		return order
	}
	sims := make([]float64, s.ncent)
	for c := range sims {
		sims[c] = dot(q, s.centroid(c))
	}
	sort.Slice(order, func(i, j int) bool {
		if sims[order[i]] != sims[order[j]] {
			return sims[order[i]] > sims[order[j]]
		}
		return order[i] < order[j]
	})
	return order[:probes]
}

// scan scores every document of sg in the probed lists into a pooled dense
// array and selects the best k under the global total order (score desc,
// DocID asc; k <= 0 keeps every scanned document), resolving names only for
// the survivors. flat ignores the lists and scans exhaustively. The scored
// array comes back still leased: the caller releases or holds it.
func (sg *segment) scan(q []float32, probes []int, flat bool, k int) ([]ir.Hit, *ir.Accum) {
	ac := sg.scratch.Get().(*ir.Accum)
	ac.Begin()
	if flat {
		for i := 0; i < sg.b.Len(); i++ {
			ac.Add(ir.DocID(i), dot(q, sg.b.Vec(i)))
		}
	} else {
		for _, c := range probes {
			for _, local := range sg.listDoc[sg.listOff[c]:sg.listOff[c+1]] {
				ac.Add(ir.DocID(local), dot(q, sg.b.Vec(int(local))))
			}
		}
	}
	hits := ac.TopK(k)
	for i := range hits {
		hits[i].Name = sg.b.Name(int(hits[i].Doc))
		hits[i].Doc += sg.base
	}
	return hits, ac
}

// searchOrds is the lane's one scatter-gather body: scan the named
// segments and merge their hits under the global total order, capped at k
// (k <= 0 ranks every scanned document). flat is the brute-force scan. A
// non-nil hold takes over every leg's score array, by ordinal, still
// leased; otherwise the legs release them.
func (s *Segments) searchOrds(query string, k int, ords []int, flat bool, hold []*ir.Accum) ([]ir.Hit, SearchStats, []SegStat, error) {
	if err := segset.Check(len(s.segs), ords...); err != nil {
		return nil, SearchStats{}, nil, err
	}
	q, err := s.embedQuery(query)
	if err != nil {
		return nil, SearchStats{}, nil, err
	}
	nprobe := s.probes
	if flat {
		nprobe = 0 // every list: the count a flat scan reports
	}
	probes := s.probeSet(q, nprobe)
	per := make([][]ir.Hit, len(ords))
	legs := segset.Scatter(ords, func(slot, ord int) SearchStats {
		hits, ac := s.segs[ord].scan(q, probes, flat, k)
		per[slot] = hits
		scanned := ac.Touched()
		if hold != nil {
			hold[ord] = ac
		} else {
			ac.Release()
		}
		return SearchStats{Probes: len(probes), DocsScanned: scanned}
	})
	stats := SearchStats{Probes: len(probes)}
	for _, l := range legs {
		stats.DocsScanned += l.Stats.DocsScanned
	}
	return ir.MergeHits(per, k), stats, legs, nil
}

// Search runs the IVF query and returns the top k hits under the global
// (score desc, DocID asc) total order; k <= 0 ranks every scanned
// document.
func (s *Segments) Search(query string, k int) ([]ir.Hit, SearchStats, error) {
	hits, stats, _, err := s.searchOrds(query, k, s.bases.Ords(), false, nil)
	return hits, stats, err
}

// SearchScores is Search that also leaves the query's scores leased — the
// vec mirror of ir.Segments.SearchScores: the top k hits, plus a handle
// over every scanned document's score for a rank fusion to place the
// lexical lane's candidates in this one. The caller must Release it.
func (s *Segments) SearchScores(query string, k int) ([]ir.Hit, ir.SegScores, SearchStats, []SegStat, error) {
	acs := make([]*ir.Accum, len(s.segs))
	hits, stats, legs, err := s.searchOrds(query, k, s.bases.Ords(), false, acs)
	if err != nil {
		return nil, ir.SegScores{}, SearchStats{}, nil, err
	}
	return hits, ir.LeaseScores(s.bases, acs), stats, legs, nil
}

// SearchSegments is Search over only the segments named by ords (a
// distributed node's placement; nil names them all), plus per-segment
// scatter stats for explain plans. The gather layer's k-way merge of
// partial answers reproduces the full Search byte for byte.
func (s *Segments) SearchSegments(query string, k int, ords []int) ([]ir.Hit, SearchStats, []SegStat, error) {
	if ords == nil {
		ords = s.bases.Ords()
	}
	return s.searchOrds(query, k, ords, false, nil)
}

// SearchFlat is the brute-force reference scorer: every document of
// every segment, no coarse quantization. The IVF path with Probes <= 0
// is locked byte-identical to it.
func (s *Segments) SearchFlat(query string, k int) ([]ir.Hit, SearchStats, error) {
	hits, stats, _, err := s.searchOrds(query, k, s.bases.Ords(), true, nil)
	return hits, stats, err
}
