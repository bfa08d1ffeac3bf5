package ir

import "sort"

// Retained pre-kernel scorer: the map-accumulator search kept as an
// executable specification for the dense kernel. It consumes the same
// precomputed impact values in the same term order, so the kernel's output
// must match it byte for byte — same hits, same float64 scores, same
// tie-breaks. kernel_test.go locks the equivalence on the seeded synthetic
// corpus; nothing on the serving path calls this.

// searchMapReference is the reference implementation of Search: a
// map[DocID]float64 accumulator filled term by term, ranked by a full
// build-all-then-sort.
func (ix *Index) searchMapReference(query string, k int) ([]Hit, SearchStats, error) {
	if !ix.frozen {
		return nil, SearchStats{}, ErrNotFrozen
	}
	terms := dedupe(Analyze(query))
	if len(terms) == 0 {
		return nil, SearchStats{}, ErrEmptyQry
	}
	var stats SearchStats
	scores := map[DocID]float64{}
	for _, term := range terms {
		o, ok := ix.lookup(term)
		if !ok {
			continue
		}
		post, imps := ix.postings(o)
		for i, p := range post {
			scores[p.Doc] += float64(imps[i])
			stats.PostingsScored++
		}
		stats.TermsMatched++
	}
	stats.DocsTouched = len(scores)
	return topKMap(ix, scores, k), stats, nil
}

// topKMap ranks the score map and returns the best k hits, ties broken by
// ascending DocID for determinism — the reference for topKDense.
func topKMap(ix *Index, scores map[DocID]float64, k int) []Hit {
	hits := make([]Hit, 0, len(scores))
	for d, s := range scores {
		hits = append(hits, Hit{Doc: d, Name: ix.names.At(int(d)), Score: s})
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Score != hits[b].Score {
			return hits[a].Score > hits[b].Score
		}
		return hits[a].Doc < hits[b].Doc
	})
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}
