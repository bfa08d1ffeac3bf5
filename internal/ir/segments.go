package ir

// Segmented retrieval: a Segments reader treats N immutable frozen indexes
// as one logical collection. Every segment is frozen against the *union*
// collection statistics (document count, summed length, per-term df), so a
// posting's precomputed impact is bit-identical to the impact the same
// posting would carry in one merged index. Queries scatter across segments
// — each segment ranks its own top k with the top-k kernel (maxscore.go) —
// and the per-segment top-K streams merge under the global (score desc,
// DocID asc) total order, which makes the gathered answer byte-identical to
// searching the monolithic build: same hits, same float64 scores, same
// tie-breaks, same total. segments_test.go locks the equivalence on 1-, 2-,
// and N-way splits.

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/segset"
)

// Segments is a scatter-gather reader over an ordered set of immutable
// index segments. Global document IDs are assigned contiguously in segment
// order (see segset.Bases).
//
// Concurrency: a Segments value is immutable after NewSegments; all read
// paths are safe for any number of concurrent goroutines, exactly like a
// frozen Index.
type Segments struct {
	segs  []*Index
	bases segset.Bases
	vocb  int // union vocabulary size
}

// NewSegments freezes the given unfrozen index parts against their union
// collection statistics and returns the scatter-gather reader over them.
// Parts must be built (Add) but not yet frozen: freezing is what bakes the
// collection-wide idf and length normalization into each posting's impact.
func NewSegments(parts []*Index) (*Segments, error) {
	if len(parts) == 0 {
		return nil, errors.New("ir: NewSegments needs at least one segment")
	}
	var docs int
	var totalLn int64
	df := map[string]int{}
	sizes := make([]int, len(parts))
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("ir: segment %d is nil", i)
		}
		if p.frozen {
			return nil, fmt.Errorf("ir: segment %d is already frozen", i)
		}
		sizes[i] = p.Docs()
		docs += p.Docs()
		totalLn += p.totalLn
		for t, pl := range p.build {
			df[t] += len(pl)
		}
	}
	cs := corpusStats{docs: docs, totalLn: totalLn, df: func(t string) int { return df[t] }}
	bases := segset.NewBases(sizes)
	// Freezing reads the shared statistics and writes only its own part.
	segset.Scatter(bases.Ords(), func(_, ord int) struct{} {
		parts[ord].freezeWith(cs)
		return struct{}{}
	})
	return &Segments{segs: append([]*Index(nil), parts...), bases: bases, vocb: len(df)}, nil
}

// NumSegments returns the segment count.
func (s *Segments) NumSegments() int { return len(s.segs) }

// Name names n documents of the collection with one allocation: doc(i) is
// the i-th document's global ID, which must be one of the collection's, and
// set(i, name) receives its name, aliasing the one buffer every name of the
// call is decoded into. Search and SearchSegments name the hits they return;
// Rank's, SearchScores' and the vector lane's, which numbers the same pages
// alike, are unnamed, so that a caller names only the page it cuts from them.
func (s *Segments) Name(n int, doc func(i int) DocID, set func(i int, name string)) {
	nameDocs(n, func(i int) (*frontTable, int) {
		ord, local := s.bases.Of(int(doc(i)))
		return &s.segs[ord].names, local
	}, set)
}

// nameHits names hits of the collection (Name).
func (s *Segments) nameHits(hits []Hit) {
	s.Name(len(hits), func(i int) DocID { return hits[i].Doc }, func(i int, name string) { hits[i].Name = name })
}

// Partition returns the layout of the segments' documents in the global
// doc-ID space.
func (s *Segments) Partition() segset.Bases { return s.bases }

// Docs returns the total document count across segments.
func (s *Segments) Docs() int { return s.bases.Total() }

// SegStat reports one scatter leg: the segment's kernel work counters and
// the leg's wall time — the payload of per-segment explain plans.
type SegStat = segset.Leg[SearchStats]

// termMask marks query terms by position: bit i stands for terms[i]. A nil
// mask marks nothing.
type termMask []uint64

func (m termMask) set(i int) {
	if m != nil {
		m[i/64] |= 1 << (i % 64)
	}
}

// scatter runs leg on each named segment and folds the per-leg stats into
// what a monolithic run over the same segments would have reported —
// TermsMatched counts query terms present in any of them (each leg marks the
// terms its segment resolved in its own mask), the work counters sum
// (segments hold disjoint docs), and early termination is reported if any
// leg terminated early. A leg whose lists fail their check (checkList) names
// its segment in the error.
func (s *Segments) scatter(terms []string, ords []int, leg func(slot, ord int, seen termMask) (SearchStats, error)) (SearchStats, []SegStat, error) {
	errs := make([]error, len(ords))
	words := (len(terms) + 63) / 64
	seen := make(termMask, len(ords)*words)
	legs := segset.Scatter(ords, func(slot, ord int) SearchStats {
		st, err := leg(slot, ord, seen[slot*words:(slot+1)*words])
		if err != nil {
			errs[slot] = fmt.Errorf("ir: segment %d: %w", ord, err)
		}
		return st
	})
	if err := errors.Join(errs...); err != nil {
		return SearchStats{}, nil, err
	}
	var out SearchStats
	for w := range words {
		var union uint64
		for slot := range ords {
			union |= seen[slot*words+w]
		}
		out.TermsMatched += bits.OnesCount64(union)
	}
	for _, l := range legs {
		out.PostingsScored += l.Stats.PostingsScored
		out.DocsTouched += l.Stats.DocsTouched
		out.Terminated = out.Terminated || l.Stats.Terminated
	}
	return out, legs, nil
}

// searchOrds ranks the named segments: each leg selects its own top k
// under global doc IDs with the top-k kernel (Index.rank), and the streams
// merge under the global (score desc, DocID asc) total order, capped at k
// (k <= 0 keeps everything). The hits are unnamed.
func (s *Segments) searchOrds(terms []string, k int, ords []int) ([]Hit, SearchStats, []SegStat, error) {
	per := make([][]Hit, len(ords))
	stats, legs, err := s.scatter(terms, ords, func(slot, ord int, seen termMask) (SearchStats, error) {
		hits, st, err := s.segs[ord].rank(terms, k, seen)
		per[slot] = s.global(ord, hits)
		return st, err
	})
	if err != nil {
		return nil, SearchStats{}, nil, err
	}
	return MergeHits(per, k), stats, legs, nil
}

// global shifts segment ord's hits to global doc IDs, in place.
func (s *Segments) global(ord int, hits []Hit) []Hit {
	base := DocID(s.bases.Start(ord))
	for j := range hits {
		hits[j].Doc += base
	}
	return hits
}

// scoreOrds scores every named segment densely (scoreTerms) into an
// accumulator pooled by that segment and hands it to keep, still leased; a
// leg whose lists fail their check releases its accumulator instead.
func (s *Segments) scoreOrds(terms []string, ords []int, keep func(slot, ord int, ac *Accum)) (SearchStats, []SegStat, error) {
	return s.scatter(terms, ords, func(slot, ord int, seen termMask) (SearchStats, error) {
		ac := s.segs[ord].getAccum()
		st, err := s.segs[ord].scoreTerms(terms, ac, seen)
		if err != nil {
			ac.Release()
			return st, err
		}
		keep(slot, ord, ac)
		return st, nil
	})
}

// MergeHits gathers independently produced best-first hit streams (per
// segment, or per node over disjoint segment sets) into one ranked list
// under the global (score desc, DocID asc) order, capped at k (k <= 0 keeps
// everything). See segset.Merge for why the gather may nest.
func MergeHits(per [][]Hit, k int) []Hit {
	return segset.Merge(per, k, func(h *Hit) (float64, int) { return h.Score, int(h.Doc) })
}

// Search runs a ranked BM25 query across all segments and returns the top
// k hits — byte-identical to Index.Search on the merged collection (same
// hits, scores, and tie-breaks).
func (s *Segments) Search(query string, k int) ([]Hit, SearchStats, error) {
	hits, stats, _, err := s.SearchSegments(query, k, nil)
	return hits, stats, err
}

// SearchSegments is Search over only the named segment ordinals (nil names
// them all), returning additionally the kernel stats and wall time of each
// scatter leg. It is the partial-read primitive of the distributed tier:
// segments are frozen against union corpus statistics, so a partial answer
// carries exactly the scores the same documents have in a full Search, and
// re-merging partial answers from disjoint ordinal sets under the same
// order reproduces Search over all segments byte for byte. Stats cover only
// the selected segments.
func (s *Segments) SearchSegments(query string, k int, ords []int) ([]Hit, SearchStats, []SegStat, error) {
	hits, stats, legs, err := s.Rank(query, k, ords)
	s.nameHits(hits)
	return hits, stats, legs, err
}

// Rank is SearchSegments without the names (see Name): the ranking for a
// caller that names only the page it cuts from it.
func (s *Segments) Rank(query string, k int, ords []int) ([]Hit, SearchStats, []SegStat, error) {
	terms, ords, err := s.analyze(query, ords)
	if err != nil {
		return nil, SearchStats{}, nil, err
	}
	return s.searchOrds(terms, k, ords)
}

// SearchScores is Search that also leaves the query's scores leased: the
// top k hits, unnamed (see Name), plus a SegScores handle over everything
// the query touched — what a rank fusion needs to place another lane's
// candidates in this one (SegScores.Ranks). It scores every posting, as
// ScoreQuery does, and selects each segment's top k from its accumulator.
// The caller must Release the handle.
func (s *Segments) SearchScores(query string, k int) ([]Hit, SegScores, SearchStats, error) {
	terms, ords, err := s.analyze(query, nil)
	if err != nil {
		return nil, SegScores{}, SearchStats{}, err
	}
	acs := make([]*Accum, len(s.segs))
	per := make([][]Hit, len(ords))
	stats, legs, err := s.scoreOrds(terms, ords, func(slot, ord int, ac *Accum) {
		per[slot] = s.global(ord, ac.TopK(k))
		acs[ord] = ac
	})
	if err != nil {
		SegScores{acs: acs}.Release() // the legs that did score
		return nil, SegScores{}, SearchStats{}, err
	}
	return MergeHits(per, k), SegScores{bases: s.bases, acs: acs, per: legs}, stats, nil
}

// analyze analyses the query and checks the ordinals (nil names all).
func (s *Segments) analyze(query string, ords []int) ([]string, []int, error) {
	terms := dedupe(Analyze(query))
	if len(terms) == 0 {
		return nil, nil, ErrEmptyQry
	}
	if ords == nil {
		ords = s.bases.Ords()
	} else if err := segset.Check(len(s.segs), ords...); err != nil {
		return nil, nil, err
	}
	return terms, ords, nil
}

// SegScores is the segmented counterpart of Scores: a leased, read-only
// view over one query's dense per-doc scores, one pooled accumulator per
// scored segment, addressed by global doc ID. A segment the query did not
// score (ScoreSegments over a selection) holds no accumulator: its documents
// read as unscored. Release returns every accumulator to its segment's pool;
// the handle must not be used after Release. The zero value is invalid
// (Valid reports false) and safe to Release.
type SegScores struct {
	bases segset.Bases
	acs   []*Accum
	per   []SegStat
}

// LeaseScores wraps one scored, still leased accumulator per segment of a
// lane laid out by bases — how the vector lane hands out its scores.
func LeaseScores(bases segset.Bases, acs []*Accum) SegScores {
	return SegScores{bases: bases, acs: acs}
}

// Valid reports whether the handle holds a scored query.
func (sc SegScores) Valid() bool { return sc.acs != nil }

// Get returns doc d's score (0 for documents the query did not touch).
func (sc SegScores) Get(d DocID) float64 {
	if d < 0 || int(d) >= sc.bases.Total() {
		return 0
	}
	ord, local := sc.bases.Of(int(d))
	if sc.acs[ord] == nil {
		return 0
	}
	return sc.acs[ord].Get(DocID(local))
}

// Ranks returns each hit's document's 1-based rank among all the documents
// the query scored, under the (score desc, DocID asc) order, and 0 where the
// query did not score it — the position it holds in the full ranking,
// without building one. The hits are another lane's; only their Doc is read.
//
// A candidate's rank is one more than the scored documents ranked ahead of
// it. One pass over the scored documents finds, for each, the first
// candidate it ranks ahead of, and counts it there. The candidates' scores
// fall into few classes of equal scores (a keyword lane's into a handful):
// a document is tested against the best and the worst class first, a binary
// search over the classes finds its place only in between, and a second
// one, over its class's candidates by DocID, only when it ties one. A
// segment's documents are touched mostly in DocID order, a posting list at
// a time, so that search starts only when the gap between the class's
// candidates where the class's last tie fell does not hold the document:
// on BenchmarkRankedPage's page 80 of 8,192 ties search.
func (sc SegScores) Ranks(hits []Hit) []int {
	ranks := make([]int, len(hits))
	// cands are the listed documents this query scored, each with its
	// position in hits.
	type cand struct {
		score float64
		doc   DocID
		at    int
	}
	cands := make([]cand, 0, len(hits))
	for i, h := range hits {
		if h.Doc < 0 || int(h.Doc) >= sc.bases.Total() {
			continue
		}
		ord, local := sc.bases.Of(int(h.Doc))
		if ac := sc.acs[ord]; ac != nil && ac.stamps[local] == ac.epoch {
			cands = append(cands, cand{score: ac.scores[local], doc: h.Doc, at: i})
		}
	}
	n := len(cands)
	if n == 0 {
		return ranks
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.doc, b.doc)
	})
	// classes holds the distinct candidate scores, descending; class c's
	// candidates are cands[first[c]:first[c+1]], ascending by DocID.
	// ahead[q] counts the scored documents whose first candidate ranked
	// behind them is cands[q]: they rank ahead of it and every one after it.
	// gap[c] is that candidate for the last document tied with class c.
	ints := make([]int, 3*n+2)
	classes, first, ahead, gap := make([]float64, 0, n), ints[:0:n+1], ints[n+1:2*n+2], ints[2*n+2:]
	for i := range cands {
		if i == 0 || cands[i].score != cands[i-1].score {
			gap[len(classes)] = i
			classes = append(classes, cands[i].score)
			first = append(first, i)
		}
	}
	k := len(classes)
	first = append(first, n)
	best, worst := classes[0], classes[k-1]
	for ord, ac := range sc.acs {
		if ac == nil {
			continue
		}
		base := DocID(sc.bases.Start(ord))
		for _, d := range ac.touched {
			s := ac.scores[d]
			q := 0
			switch {
			case s < worst:
				continue // ranks behind every candidate
			case s > best:
			default:
				c, hi := 0, k-1 // c becomes the first class whose score is at most s
				for c < hi {
					m := int(uint(c+hi) >> 1)
					if classes[m] <= s {
						hi = m
					} else {
						c = m + 1
					}
				}
				q = first[c]
				if classes[c] != s {
					break
				}
				// Tied: behind the class's candidates with a lower DocID.
				lo, hi, doc := q, first[c+1], base+d
				if q = gap[c]; q > lo && cands[q-1].doc > doc || q < hi && cands[q].doc <= doc {
					for q = lo; q < hi; {
						m := int(uint(q+hi) >> 1)
						if cands[m].doc > doc {
							hi = m
						} else {
							q = m + 1
						}
					}
					gap[c] = q
				}
			}
			ahead[q]++
		}
	}
	total := 0
	for q, c := range cands {
		total += ahead[q]
		ranks[c.at] = total + 1
	}
	return ranks
}

// SegmentStats returns the kernel stats and wall time of each segment's
// scatter leg.
func (sc SegScores) SegmentStats() []SegStat { return sc.per }

// Release returns the backing accumulators to their segments' pools. Safe
// on the zero value.
func (sc SegScores) Release() {
	for _, ac := range sc.acs {
		if ac != nil {
			ac.Release()
		}
	}
}

// ScoreQuery runs the exhaustive scorer across all segments and returns a
// leased handle over the per-doc scores — the ranking-free form of Search
// for callers that join scores into their own result sets: every segment's
// scored accumulator is kept, leased, behind the handle. Scores are
// byte-identical to Index.Search's on the merged collection.
func (s *Segments) ScoreQuery(query string) (SegScores, SearchStats, error) {
	return s.ScoreSegments(query, nil)
}

// ScoreSegments is ScoreQuery over only the named segment ordinals (nil names
// them all): the partial-read form a rank lookup counts over, where the
// handle's Ranks place documents among what the selection scored and a
// document of an unselected segment ranks 0. Stats cover only the selection.
func (s *Segments) ScoreSegments(query string, ords []int) (SegScores, SearchStats, error) {
	terms, ords, err := s.analyze(query, ords)
	if err != nil {
		return SegScores{}, SearchStats{}, err
	}
	acs := make([]*Accum, len(s.segs))
	stats, legs, err := s.scoreOrds(terms, ords, func(_, ord int, ac *Accum) { acs[ord] = ac })
	if err != nil {
		SegScores{acs: acs}.Release() // the legs that did score
		return SegScores{}, SearchStats{}, err
	}
	return SegScores{bases: s.bases, acs: acs, per: legs}, stats, nil
}
