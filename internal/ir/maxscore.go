package ir

// Exact top-k over the doc-ordered postings, in the style of MaxScore
// (Turtle & Flood 1995). Each query term's bound is the largest impact in
// its book, so it costs no stored byte. With the terms ordered by bound,
// the longest prefix whose bounds sum to no more than the current threshold
// is non-essential: a document that only those lists hold cannot reach the
// top k. The kernel walks the essential lists in document order and probes
// the non-essential ones by doc ID only for a document whose bound with them
// can still pass the threshold. The
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
// Lists are read by their kind (bitmap.go): a sparse list's cursor walks its
// doc IDs and a probe gallops over them, a bitmap's cursor walks its set bits
// and a probe is a bit test plus a rank, and a full list's cursor walks every
// document and a probe is its code at the document's index.
//
// The answer's total is the exact size of the lists' union, counted without
// reading an impact (union): the dense lists ORed into a word array, the
// sparse lists' documents set in it, and a popcount. A full list is the whole
// segment.

import (
	"math"
	"math/bits"
)

// width is the element type of a doc-ID or code column the kernel reads.
type width interface{ uint8 | uint16 | uint32 }

// end is a cursor's doc past its last posting.
const end = math.MaxInt32

// cursor is one query term's doc-ordered list in one segment.
type cursor[D, C width] struct {
	kind  listKind
	docs  []D      // a sparse list's doc IDs
	bm    []uint64 // a bitmap list's words
	ranks column   // the index's rank samples
	rank0 int      // a bitmap list's first rank sample
	codes []C
	book  []float32
	bound float64 // the largest impact in book
	pos   int     // the posting at the cursor: its index in codes
	doc   int     // its document, or end
	word  uint64  // a bitmap cursor's bits of word doc/64 from doc up
}

// impact returns the impact of the posting at the cursor.
func (c *cursor[D, C]) impact() float64 { return float64(c.book[c.codes[c.pos]]) }

// rewind puts the cursor at its list's first posting.
func (c *cursor[D, C]) rewind() {
	c.pos, c.doc = 0, end
	switch c.kind {
	case bitmapList:
		c.word = c.bm[0]
		c.settle(0)
	case fullList:
		c.doc = 0
	default:
		if len(c.docs) > 0 {
			c.doc = int(c.docs[0])
		}
	}
}

// settle moves a bitmap cursor whose bits of word w are c.word to its first
// set bit from there.
func (c *cursor[D, C]) settle(w int) {
	for c.word == 0 {
		if w++; w == len(c.bm) {
			c.doc = end
			return
		}
		c.word = c.bm[w]
	}
	c.doc = w<<6 | bits.TrailingZeros64(c.word)
}

// next moves the cursor to its list's next posting.
func (c *cursor[D, C]) next() {
	c.pos++
	switch c.kind {
	case bitmapList:
		c.word &= c.word - 1
		c.settle(c.doc >> 6)
	case fullList:
		if c.doc++; c.pos == len(c.codes) {
			c.doc = end
		}
	default:
		c.doc = end
		if c.pos < len(c.docs) {
			c.doc = int(c.docs[c.pos])
		}
	}
}

// seek reports whether the list holds doc d and, if it does, puts the
// cursor's posting there. Successive seeks of a sparse list must not
// descend: it gallops on from its last posting.
func (c *cursor[D, C]) seek(d int) bool {
	switch c.kind {
	case bitmapList:
		if c.bm[d>>6]>>(d&63)&1 == 0 {
			return false
		}
		c.pos = rankOf(c.bm, c.ranks, c.rank0, d)
	case fullList:
		c.pos = d
	default:
		c.pos = gallop(c.docs, c.pos, d)
		return c.pos < len(c.docs) && int(c.docs[c.pos]) == d
	}
	return true
}

// gallop returns the first index at or after from whose doc ID is at least
// d: exponential steps from from, then a binary search inside the last step.
func gallop[D width](docs []D, from int, d int) int {
	if from >= len(docs) || int(docs[from]) >= d {
		return from
	}
	lo, step := from, 1 // docs[lo] < d
	hi := lo + step
	for hi < len(docs) && int(docs[hi]) < d {
		lo, step = hi, 2*step
		hi = lo + step
	}
	hi = min(hi, len(docs)) // docs[hi] >= d, or hi is the end
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(docs[mid]) < d {
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

// lists is queryLists at one pair of column widths. Its slices are leased
// with the accumulator that holds it (Accum.lists) and reused by the next
// query on the segment.
type lists[D, C width] struct {
	cur   []cursor[D, C] // in query-term order
	order []int          // cursor indices by ascending bound
	rank  []int          // rank[i] is cursor i's position in order
	vals  []float64      // per cursor: its impact, 0, or its bound
	words []uint64       // union's documents, a bit each
	docs  int            // the segment's documents
	n     int            // postings
}

// queryLists looks up terms in the index and returns their lists, held by
// ac. A list a query reads for the first time is verified first
// (checkList).
func (ix *Index) queryLists(terms []string, ac *Accum, seen termMask) (queryLists, error) {
	switch docs := ix.docs.vals.(type) {
	case []uint8:
		return listsAt(ix, docs, terms, ac, seen)
	case []uint16:
		return listsAt(ix, docs, terms, ac, seen)
	}
	return listsAt(ix, ix.docs.vals.([]uint32), terms, ac, seen)
}

// listsAt is queryLists instantiated at the doc-ID column's width.
func listsAt[D width](ix *Index, docs []D, terms []string, ac *Accum, seen termMask) (queryLists, error) {
	switch codes := ix.codes.vals.(type) {
	case []uint8:
		return newLists(ix, docs, codes, terms, ac, seen)
	case []uint16:
		return newLists(ix, docs, codes, terms, ac, seen)
	}
	return newLists(ix, docs, ix.codes.vals.([]uint32), terms, ac, seen)
}

func newLists[D, C width](ix *Index, docs []D, codes []C, terms []string, ac *Accum, seen termMask) (queryLists, error) {
	l, _ := ac.lists.(*lists[D, C])
	if l == nil {
		l = new(lists[D, C])
		ac.lists = l
	}
	l.cur, l.order, l.docs, l.n = l.cur[:0], l.order[:0], ix.Docs(), 0
	for i, term := range terms {
		o, ok := ix.lookup(term)
		if !ok {
			continue
		}
		seen.set(i)
		if err := ix.checkList(o, term); err != nil {
			return nil, err
		}
		li := ix.list(o)
		blo, bhi := ix.bookSpan(o)
		book := ix.bookImp[blo:bhi]
		var bound float32
		for _, v := range book {
			bound = max(bound, v)
		}
		c := cursor[D, C]{kind: li.kind, codes: codes[li.lo:li.hi], book: book, bound: float64(bound)}
		switch li.kind {
		case sparseList:
			c.docs = docs[li.at : li.at+li.hi-li.lo]
		case bitmapList:
			c.bm, c.ranks, c.rank0 = ix.bitmapWords(li.at), ix.ranks, li.at*samples(words(l.docs))
		}
		l.cur = append(l.cur, c)
		l.n += li.hi - li.lo
		// Insertion into order by ascending bound, ties in query order.
		i := len(l.cur) - 1
		l.order = append(l.order, i)
		j := i
		for ; j > 0 && l.cur[l.order[j-1]].bound > c.bound; j-- {
			l.order[j] = l.order[j-1]
		}
		l.order[j] = i
	}
	m := len(l.cur)
	l.rank, l.vals = grow(l.rank, m), grow(l.vals, m)
	for j, i := range l.order {
		l.rank[i] = j
	}
	return l, nil
}

// grow returns s resliced to n elements, reallocated if it holds fewer.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (l *lists[D, C]) count() int    { return len(l.cur) }
func (l *lists[D, C]) postings() int { return l.n }

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
// impact: a full list holds them all; otherwise the bitmaps are ORed into
// a word array, the sparse lists' documents set in it, and its bits
// counted.
func (l *lists[D, C]) union() int {
	for i := range l.cur {
		if l.cur[i].kind == fullList {
			return l.docs
		}
	}
	l.words = grow(l.words, words(l.docs))
	clear(l.words)
	for i := range l.cur {
		c := &l.cur[i]
		for w, x := range c.bm {
			l.words[w] |= x
		}
		for _, d := range c.docs {
			l.words[d>>6] |= 1 << (d & 63)
		}
	}
	n := 0
	for _, x := range l.words {
		n += bits.OnesCount64(x)
	}
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
	for i := range l.cur {
		l.cur[i].rewind()
	}
	raise()
	scored := 0
	for ne < len(l.order) {
		essential := l.order[ne:]
		d := end
		for _, i := range essential {
			d = min(d, l.cur[i].doc)
		}
		if d == end {
			break
		}
		for _, i := range essential {
			l.vals[i] = 0
			if c := &l.cur[i]; c.doc == d {
				l.vals[i] = c.impact()
				c.next()
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
