package ir

// Exact top-k over the doc-ordered postings, in the style of MaxScore
// (Turtle & Flood 1995). Each query term's bound is the largest impact in
// its book, so it costs no stored byte. With the terms ordered by bound,
// the longest prefix whose bounds sum to no more than the current threshold
// is non-essential: a document that only those lists hold cannot reach the
// top k. The kernel walks the essential lists in document order and probes
// the non-essential ones by doc ID, galloping over their doc-ID columns, only
// for a document whose bound with them can still pass the threshold. The
// threshold is the k-th best score so far, so the essential set shrinks as
// the heap fills.
//
// Bit-equal sums: a document's score is the sum of its impacts in query-term
// order with a zero for every term that does not hold it, which is the float64
// the dense kernel (scoreTerms) accumulates for it. Every bound the kernel
// compares is summed in the same order over the same terms, with a term's
// bound standing in for its impact; rounded addition is monotone, so such a
// sum is never below the score it bounds, and pruning never drops a document
// the dense kernel would rank. Ties keep the (score desc, DocID asc) order:
// documents arrive in ascending doc order, so once the heap is full a
// document passes only with a score strictly above the k-th.
//
// The answer's total is the exact size of the lists' union, counted over
// their doc-ID columns alone (union): no impact is read for it.

import "math"

// width is the element type of a doc-ID or code column the kernel reads.
type width interface{ uint8 | uint16 | uint32 }

// cursor is one query term's doc-ordered list in one segment.
type cursor[D, C width] struct {
	docs  []D
	codes []C
	book  []float32
	bound float64 // the largest impact in book
	pos   int
}

// impact returns the impact of the posting at the cursor.
func (c *cursor[D, C]) impact() float64 { return float64(c.book[c.codes[c.pos]]) }

// seek advances the cursor to the first posting at or past doc d and reports
// whether the list holds d.
func (c *cursor[D, C]) seek(d D) bool {
	c.pos = gallop(c.docs, c.pos, d)
	return c.pos < len(c.docs) && c.docs[c.pos] == d
}

// gallop returns the first index at or after from whose doc ID is at least
// d: exponential steps from from, then a binary search inside the last step.
func gallop[D width](docs []D, from int, d D) int {
	if from >= len(docs) || docs[from] >= d {
		return from
	}
	lo, step := from, 1 // docs[lo] < d
	hi := lo + step
	for hi < len(docs) && docs[hi] < d {
		lo, step = hi, 2*step
		hi = lo + step
	}
	hi = min(hi, len(docs)) // docs[hi] >= d, or hi is the end
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if docs[mid] < d {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// queryLists is one segment's posting lists for a query's known terms, in
// query-term order, at the segment's column widths.
type queryLists interface {
	// count returns the number of lists and postings the number of
	// postings they hold.
	count() int
	postings() int
	// union returns the exact number of distinct documents the lists hold.
	union() int
	// topK returns the best k documents, best first and unnamed, and the
	// postings whose impact it read. k must be positive.
	topK(k int) ([]Hit, int)
}

// lists is queryLists at one pair of column widths.
type lists[D, C width] struct {
	cur   []cursor[D, C] // in query-term order
	order []int          // cursor indices by ascending bound
	rank  []int          // rank[i] is cursor i's position in order
	vals  []float64      // per cursor: its impact, 0, or its bound
	n     int            // postings
}

// queryLists looks up terms in the index and returns their lists. A list a
// query reads for the first time is verified first (checkList).
func (ix *Index) queryLists(terms []string) (queryLists, error) {
	ords := make([]int, 0, len(terms))
	for _, term := range terms {
		o, ok := ix.lookup(term)
		if !ok {
			continue
		}
		if err := ix.checkList(o, term); err != nil {
			return nil, err
		}
		ords = append(ords, o)
	}
	switch docs := ix.docs.vals.(type) {
	case []uint8:
		return listsAt(ix, docs, ords), nil
	case []uint16:
		return listsAt(ix, docs, ords), nil
	}
	return listsAt(ix, ix.docs.vals.([]uint32), ords), nil
}

// listsAt is queryLists instantiated at the doc-ID column's width.
func listsAt[D width](ix *Index, docs []D, ords []int) queryLists {
	switch codes := ix.codes.vals.(type) {
	case []uint8:
		return newLists(ix, docs, codes, ords)
	case []uint16:
		return newLists(ix, docs, codes, ords)
	}
	return newLists(ix, docs, ix.codes.vals.([]uint32), ords)
}

func newLists[D, C width](ix *Index, docs []D, codes []C, ords []int) *lists[D, C] {
	m := len(ords)
	order := make([]int, 2*m)
	l := &lists[D, C]{
		cur:   make([]cursor[D, C], m),
		order: order[:m],
		rank:  order[m:],
		vals:  make([]float64, m),
	}
	for i, o := range ords {
		lo, hi := ix.span(o)
		blo, bhi := ix.bookSpan(o)
		book := ix.bookImp[blo:bhi]
		var bound float32
		for _, v := range book {
			bound = max(bound, v)
		}
		l.cur[i] = cursor[D, C]{docs: docs[lo:hi], codes: codes[lo:hi], book: book, bound: float64(bound)}
		l.n += hi - lo
		// Insertion into order by ascending bound, ties in query order.
		j := i
		for ; j > 0 && l.cur[l.order[j-1]].bound > float64(bound); j-- {
			l.order[j] = l.order[j-1]
		}
		l.order[j] = i
	}
	for j, i := range l.order {
		l.rank[i] = j
	}
	return l
}

func (l *lists[D, C]) count() int    { return len(l.cur) }
func (l *lists[D, C]) postings() int { return l.n }

// rewind puts every cursor back at its list's first posting.
func (l *lists[D, C]) rewind() {
	for i := range l.cur {
		l.cur[i].pos = 0
	}
}

// sum adds vals in query-term order.
func (l *lists[D, C]) sum() float64 {
	var s float64
	for _, v := range l.vals {
		s += v
	}
	return s
}

// prefixBound sums, in query-term order, the bounds of the first p lists
// by ascending bound.
func (l *lists[D, C]) prefixBound(p int) float64 {
	var s float64
	for i := range l.cur {
		if l.rank[i] < p {
			s += l.cur[i].bound
		}
	}
	return s
}

// union counts the distinct documents of the lists without reading an
// impact: the longest list counts whole, and a document of another list
// counts once more when neither the longest nor an earlier list holds it,
// which galloping over their doc IDs finds.
func (l *lists[D, C]) union() int {
	if len(l.cur) == 0 {
		return 0
	}
	long := 0
	for i := range l.cur {
		if len(l.cur[i].docs) > len(l.cur[long].docs) {
			long = i
		}
	}
	n := len(l.cur[long].docs)
	for i := range l.cur {
		if i == long {
			continue
		}
		l.rewind()
	next:
		for _, d := range l.cur[i].docs {
			if l.cur[long].seek(d) {
				continue
			}
			for j := 0; j < i; j++ {
				if j != long && l.cur[j].seek(d) {
					continue next
				}
			}
			n++
		}
	}
	l.rewind()
	return n
}

// walk visits in doc order every document whose score is above the
// threshold θ and calls emit with it and its score; emit returns the
// threshold from then on, which may only rise. walk returns the postings
// whose impact it read.
func (l *lists[D, C]) walk(θ float64, emit func(DocID, float64) float64) int {
	ne := 0 // order[:ne] are the non-essential lists
	raise := func() {
		for ne < len(l.order) && l.prefixBound(ne+1) <= θ {
			ne++
		}
	}
	l.rewind()
	raise()
	scored := 0
	for ne < len(l.order) {
		essential := l.order[ne:]
		var d D
		found := false
		for _, i := range essential {
			if c := &l.cur[i]; c.pos < len(c.docs) && (!found || c.docs[c.pos] < d) {
				d, found = c.docs[c.pos], true
			}
		}
		if !found {
			break
		}
		for _, i := range essential {
			l.vals[i] = 0
			if c := &l.cur[i]; c.pos < len(c.docs) && c.docs[c.pos] == d {
				l.vals[i] = c.impact()
				c.pos++
				scored++
			}
		}
		for _, i := range l.order[:ne] {
			l.vals[i] = l.cur[i].bound
		}
		// Probe the non-essential lists, largest bound first, while the
		// document can still pass; once all are probed, s is its score.
		s := l.sum()
		for j := ne - 1; j >= 0 && s > θ; j-- {
			i := l.order[j]
			l.vals[i] = 0
			if c := &l.cur[i]; c.seek(d) {
				l.vals[i] = c.impact()
				scored++
			}
			s = l.sum()
		}
		if s > θ {
			θ = emit(DocID(d), s)
			raise()
		}
	}
	return scored
}

func (l *lists[D, C]) topK(k int) ([]Hit, int) {
	h := make([]Hit, 0, k)
	scored := l.walk(math.Inf(-1), func(d DocID, s float64) float64 {
		// walk emits only a document that beats the heap's worst, once
		// the heap is full.
		if len(h) < k {
			h = append(h, Hit{Doc: d, Score: s})
			siftUpHit(h)
		} else {
			h[0] = Hit{Doc: d, Score: s}
			siftDownHit(h)
		}
		if len(h) < k {
			return math.Inf(-1)
		}
		return h[0].Score
	})
	return sortHeap(h), scored
}
