package ir

// Top-N optimization (Blok et al.): posting lists are read impact-ordered
// (descending term frequency) and horizontally fragmented. Safe mode
// consumes fragments best-first and stops as soon as the top N provably
// cannot change (a no-random-access bound in the style of NRA); budget mode
// processes the first MaxFragments fragment rounds and stops regardless —
// the "quality/time trade-off" studied in the paper, where answer quality
// is traded for response time. All modes score through the dense
// epoch-stamped accumulator and the impacts of each term's book, built at
// Freeze.
//
// The impact order belongs to this experiment alone: the serving lanes scan
// documents in doc order, so Freeze builds only that order and the text
// segfile stores only it. SearchTopN derives the impact order once per Index,
// on its first call, as a stable TF-descending permutation of each term's
// doc-ordered postings and their impacts (read from the doc-ID and code
// columns through the term's book) — the same postings and the same float32
// bits a freeze-time sort would produce.

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
	// Fragments is the number of horizontal fragments per posting list
	// (default 16). More fragments mean finer-grained stopping checks.
	Fragments int
	// MaxFragments, when > 0, switches to budget mode: only the first
	// MaxFragments fragment rounds are processed (each round takes one
	// fragment from every term's list), and quality may drop below 1.
	MaxFragments int
}

func (o TopNOptions) withDefaults() TopNOptions {
	if o.Fragments <= 0 {
		o.Fragments = 16
	}
	return o
}

// ceilingSlack inflates score ceilings by one part in a million: impacts
// are float64 BM25 values rounded to float32 (relative error <= 2^-24), so
// a posting's stored impact can exceed the exact-arithmetic ceiling by half
// an ulp. The slack keeps the no-random-access bound sound — it can only
// delay termination, never admit a wrong result.
const ceilingSlack = 1 + 1e-6

// termState tracks one query term's impact-ordered list during processing.
type termState struct {
	impactList
	idf  float64
	pos  int     // next unprocessed posting
	step int     // fragment size
	ub   float64 // score ceiling of the next unprocessed posting
}

// SearchTopN runs the fragment-at-a-time top-N algorithm and returns the
// top k hits. With MaxFragments == 0 the result provably equals Search's
// top k (safe termination); with a budget it may be an approximation.
func (ix *Index) SearchTopN(query string, k int, opts TopNOptions) ([]Hit, SearchStats, error) {
	if k <= 0 {
		k = 10
	}
	ac, stats, err := ix.scoreTopN(query, k, opts)
	if err != nil {
		return nil, stats, err
	}
	defer ac.Release()
	return ix.topKDense(ac, k), stats, nil
}

// scoreTopN runs the top-N algorithm into a leased accumulator, which the
// caller owns (and must return to the pool) on success.
func (ix *Index) scoreTopN(query string, k int, opts TopNOptions) (*Accum, SearchStats, error) {
	if !ix.frozen {
		return nil, SearchStats{}, ErrNotFrozen
	}
	terms := dedupe(Analyze(query))
	if len(terms) == 0 {
		return nil, SearchStats{}, ErrEmptyQry
	}
	opts = opts.withDefaults()
	lists := ix.impactLists()
	var states []*termState
	for _, t := range terms {
		o, ok := ix.lookup(t)
		if !ok || len(lists[o].list) == 0 {
			continue
		}
		il := lists[o]
		step := (len(il.list) + opts.Fragments - 1) / opts.Fragments
		st := &termState{impactList: il, idf: ix.termIdf[o], step: step}
		st.ub = scoreCeiling(st.idf, st.list[0].TF)
		states = append(states, st)
	}
	ac := ix.getAccum()
	stats := SearchStats{TermsMatched: len(states)}
	switch {
	case len(states) == 0: // no known terms: empty, all scores zero
	case opts.MaxFragments > 0:
		runBudget(states, ac, &stats, opts.MaxFragments)
	default:
		runSafe(states, ac, &stats, k)
	}
	stats.DocsTouched = len(ac.touched)
	return ac, stats, nil
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

// runSafe processes fragments best-first (highest remaining ceiling) and
// stops when no document outside the current top k can still climb into it.
func runSafe(states []*termState, ac *Accum, stats *SearchStats, k int) {
	// The termination test walks every touched document; running it after
	// every fragment would cost more than the postings it saves, so it
	// runs every checkEvery fragments.
	const checkEvery = 4
	for round := 1; ; round++ {
		// Pick the state with the highest remaining ceiling.
		var best *termState
		for _, st := range states {
			if st.pos >= len(st.list) {
				continue
			}
			if best == nil || st.ub > best.ub {
				best = st
			}
		}
		if best == nil {
			return // exhausted: exact result
		}
		processFragment(best, ac, stats)
		if round%checkEvery != 0 {
			continue
		}
		// Ceiling of everything still unprocessed.
		var ceiling float64
		for _, st := range states {
			if st.pos < len(st.list) {
				ceiling += st.ub
			}
		}
		if ceiling == 0 {
			return
		}
		if len(ac.touched) >= k {
			kth, trail := ac.kthAndTrail(k)
			// A document outside the current top k (score <= trail) can
			// reach at most trail+ceiling; an unseen document at most
			// ceiling. If neither can pass the k-th score, stop.
			if kth >= trail+ceiling {
				stats.Terminated = true
				return
			}
		}
	}
}

// processFragment scores the next fragment of st and updates its ceiling.
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
	if st.pos < len(st.list) {
		st.ub = scoreCeiling(st.idf, st.list[st.pos].TF)
	} else {
		st.ub = 0
	}
}

// scoreCeiling bounds the impact any posting with the given TF can reach
// for a term with the given idf (monotone in TF; the length-normalized
// denominator is minimized at zero document length; slack covers float32
// rounding of the stored impacts).
func scoreCeiling(idf float64, tf int32) float64 {
	f := float64(tf)
	return idf * f * (bm25K1 + 1) / (f + bm25K1*(1-bm25B)) * ceilingSlack
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
