package ir

// Top-N optimization (Blok et al.): stop reading postings once the top N
// can no longer change. Safe mode is the serving kernel itself: the exact
// top-k over the doc-ordered postings (maxscore.go), which returns Search's
// top k and reads only the postings that can still change it. Budget mode is
// the paper's quality/time trade-off: posting lists are read impact-ordered
// (descending term frequency) and horizontally fragmented, and only the
// first MaxFragments fragment rounds are processed, whatever the answer
// loses. It scores through the dense epoch-stamped accumulator.
//
// The impact order belongs to budget mode alone: the serving lanes scan
// documents in doc order, so Freeze builds only that order and the text
// segfile stores only it. Budget mode derives the impact order once per
// Index, on its first call, as a stable TF-descending permutation of each
// term's doc-ordered postings and their impacts (read from the doc-ID and
// code columns through the term's book) — the same postings and the same
// float32 bits a freeze-time sort would produce.

import "sort"

// impactList is one term's postings in impact order, each with its impact;
// its sort.Interface orders by descending TF.
type impactList struct {
	list []Posting
	imp  []float32
}

func (l impactList) Len() int           { return len(l.list) }
func (l impactList) Less(a, b int) bool { return l.list[a].TF > l.list[b].TF }
func (l impactList) Swap(a, b int) {
	l.list[a], l.list[b] = l.list[b], l.list[a]
	l.imp[a], l.imp[b] = l.imp[b], l.imp[a]
}

// impactLists returns the index's impact order by term ordinal, deriving it
// on first use.
func (ix *Index) impactLists() []impactList {
	ix.byImpactOnce.Do(func() {
		ix.byImpact = make([]impactList, ix.dict.Len())
		for o := range ix.byImpact {
			post, imp := ix.postings(o) // fresh slices
			il := impactList{post, imp}
			sort.Stable(il)
			ix.byImpact[o] = il
		}
	})
	return ix.byImpact
}

// TopNOptions tunes the optimized search.
type TopNOptions struct {
	// Fragments is the number of horizontal fragments per posting list in
	// budget mode (default 16).
	Fragments int
	// MaxFragments, when > 0, switches to budget mode: only the first
	// MaxFragments fragment rounds are processed (each round takes one
	// fragment from every term's list), and quality may drop below 1.
	MaxFragments int
}

// termState tracks one query term's impact-ordered list in budget mode.
type termState struct {
	impactList
	pos  int // next unprocessed posting
	step int // fragment size
}

// SearchTopN returns the top k hits (k <= 0 means 10). With MaxFragments
// == 0 it is the top-k kernel, whose answer equals Search's top k; with a
// budget it may be an approximation.
func (ix *Index) SearchTopN(query string, k int, opts TopNOptions) ([]Hit, SearchStats, error) {
	if k <= 0 {
		k = 10
	}
	if !ix.frozen {
		return nil, SearchStats{}, ErrNotFrozen
	}
	terms := dedupe(Analyze(query))
	if len(terms) == 0 {
		return nil, SearchStats{}, ErrEmptyQry
	}
	if opts.MaxFragments <= 0 {
		hits, stats, err := ix.rank(terms, k)
		ix.nameHits(hits)
		return hits, stats, err
	}
	fragments := opts.Fragments
	if fragments <= 0 {
		fragments = 16
	}
	lists := ix.impactLists()
	var states []*termState
	for _, t := range terms {
		o, ok := ix.lookup(t)
		if !ok || len(lists[o].list) == 0 {
			continue
		}
		il := lists[o]
		states = append(states, &termState{impactList: il, step: (len(il.list) + fragments - 1) / fragments})
	}
	ac := ix.getAccum()
	defer ac.Release()
	stats := SearchStats{TermsMatched: len(states)}
	runBudget(states, ac, &stats, opts.MaxFragments)
	stats.DocsTouched = len(ac.touched)
	return ix.topKDense(ac, k), stats, nil
}

// runBudget processes fragment rounds round-robin across terms: round r
// takes the r-th fragment of every list. This is the horizontal
// fragmentation schedule whose prefix defines the quality/time trade-off.
func runBudget(states []*termState, ac *Accum, stats *SearchStats, budget int) {
	for round := 0; round < budget; round++ {
		progressed := false
		for _, st := range states {
			if st.pos >= len(st.list) {
				continue
			}
			progressed = true
			processFragment(st, ac, stats)
		}
		if !progressed {
			return // all lists exhausted before the budget ran out
		}
	}
	for _, st := range states {
		if st.pos < len(st.list) {
			stats.Terminated = true
			return
		}
	}
}

// processFragment scores the next fragment of st.
func processFragment(st *termState, ac *Accum, stats *SearchStats) {
	end := st.pos + st.step
	if end > len(st.list) {
		end = len(st.list)
	}
	for i := st.pos; i < end; i++ {
		ac.Add(st.list[i].Doc, float64(st.imp[i]))
	}
	stats.PostingsScored += end - st.pos
	st.pos = end
}

// ScoreQuality compares an approximate top-N against the exhaustive ranking
// by realized score mass: the sum of the true (exhaustive) scores of the
// returned documents divided by the true score sum of the ideal top N.
// 1.0 means the approximation lost nothing that affects result value; the
// measure is insensitive to reorderings among equal scores, unlike Overlap.
func ScoreQuality(ix *Index, query string, k int, approx []Hit) (float64, error) {
	full, _, err := ix.Search(query, 0) // all matching docs, ranked
	if err != nil {
		return 0, err
	}
	if len(full) == 0 {
		return 1, nil
	}
	truth := make(map[DocID]float64, len(full))
	for _, h := range full {
		truth[h.Doc] = h.Score
	}
	var ideal float64
	n := k
	if n > len(full) {
		n = len(full)
	}
	for _, h := range full[:n] {
		ideal += h.Score
	}
	if ideal == 0 {
		return 1, nil
	}
	var got float64
	m := 0
	for _, h := range approx {
		if m >= k {
			break
		}
		got += truth[h.Doc]
		m++
	}
	q := got / ideal
	if q > 1 {
		q = 1 // FP accumulation order can nudge above 1
	}
	return q, nil
}
