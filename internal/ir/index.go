package ir

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// DocID identifies an indexed document.
type DocID int32

// Posting is one (document, term frequency) pair: an entry of a term's
// build list, and what postings reads back from a frozen index's columns.
// The index stores no Posting array (see Index).
type Posting struct {
	Doc DocID
	TF  int32
}

// Index is an in-memory inverted index with BM25 ranking.
//
// A frozen index holds its dictionary as one sorted, front-coded term table
// (frontcode.go) and each term's postings as a range of flat columns aligned
// with it: term ordinal o owns the postings [postOff[o], postOff[o+1]) (doc
// order) — in codes, each posting's entry in the term's book — and the book
// entries [bookOff[o], bookOff[o+1]). Where a list's documents are depends
// on how much of the segment it covers (bitmap.go): a sparse list's doc IDs
// are a range of docs, a longer list is a bitmap in bitmap (its term ordinal
// in bitOrd, a rank sample every few words in ranks), and a list of every
// document (its ordinal in fullOrd) stores none. A term's book holds the distinct
// (TF, impact) pairs of its postings in first-appearance order: their term
// frequencies in bookTF and in bookImp their float32 impacts, each a
// posting's full BM25 contribution with idf, tf saturation and
// document-length normalization folded in, so query-time scoring is one
// book load and one add per posting. A term's postings share few distinct
// pairs (at most 3 at dlbench's site), so a book is short and a code
// narrower than the impact it names; the book's largest impact is the
// term's bound in the top-k kernel (maxscore.go). The
// integer columns (postOff, docs, codes, bookOff, bookTF, bitOrd, fullOrd,
// ranks, doclen) are each stored at the narrowest width that holds their
// largest value (column.go); only Freeze and postings read bookTF. This is
// the text segfile's layout: an index opened from a file aliases the file's
// blocks, and a heap build holds the same columns, built once by Freeze. A
// query term is found by binary search over the table's restart heads and a
// scan of one block. (SearchTopN's budget mode derives an impact order from
// these; see topn.go.)
//
// Concurrency: the index has a strict build-then-serve life cycle. Add and
// Freeze mutate and must run from a single goroutine; after Freeze every
// read path (Search, SearchTopN, Docs, DocName, …) only
// reads the frozen structures and is safe to call from any number of
// goroutines concurrently. Search entry points enforce the life cycle by
// returning ErrNotFrozen before the freeze.
type Index struct {
	// build holds each term's doc-ordered postings while documents are
	// added; Freeze flattens it into the columns below and drops it.
	build map[string][]Posting
	// tf is AddTokens' term-count map, cleared and reused for every
	// document and dropped by Freeze.
	tf map[string]int32
	// lens holds each added document's analyzed token count until Freeze
	// narrows it into doclen.
	lens []uint32

	dict    frontTable // sorted, non-empty, distinct terms
	postOff column
	docs    column // the sparse lists' doc IDs
	codes   column
	bookOff column
	bookTF  column
	bookImp []float32
	bitOrd  column   // the bitmap lists' term ordinals, ascending
	fullOrd column   // the full lists' term ordinals, ascending
	bitmap  []uint64 // each bitmap list's words, in bitOrd order
	ranks   column   // each bitmap list's rank samples, in bitOrd order
	// dense is the bitmap and full lists by term ordinal (indexDense).
	dense []denseList

	// names and doclen hold each document's name, front-coded, and its
	// analyzed token count, by DocID. nameBuild front-codes the names as
	// documents are added, until Freeze seals it into names.
	names     frontTable
	nameBuild frontBuilder
	doclen    column
	totalLn   int64
	frozen    bool

	// checked has one bit per term ordinal of an opened index, set once a
	// query has verified the term's list (checkList); it is nil for a heap
	// build, whose lists are right by construction.
	checked []atomic.Uint32

	// scratch recycles per-query accumulators (see kernel.go) so that
	// steady-state searches allocate ~nothing. Populated by Freeze.
	scratch sync.Pool

	// byImpact is the impact order of SearchTopN's budget mode by term
	// ordinal, derived on its first call.
	byImpact     []impactList
	byImpactOnce sync.Once
}

// BM25 parameters (standard Robertson values).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Errors returned by the package.
var (
	ErrFrozen    = errors.New("ir: index is frozen")
	ErrNotFrozen = errors.New("ir: index must be frozen before searching")
	ErrEmptyQry  = errors.New("ir: query has no indexable terms")
)

// NewIndex creates an empty index.
func NewIndex() *Index {
	return &Index{build: map[string][]Posting{}}
}

// Add indexes a document under the given name and returns its ID.
// Documents cannot be added after Freeze.
func (ix *Index) Add(name, text string) (DocID, error) {
	return ix.AddTokens(name, Analyze(text))
}

// AddTokens is Add for a document already analysed: toks must be what
// Analyze (or an Analyzer) returned for its text. The index keeps the term
// strings, never the slice, so a caller may recycle it — the form a build
// uses to analyse each page once for both page lanes.
func (ix *Index) AddTokens(name string, toks []string) (DocID, error) {
	if ix.frozen {
		return 0, ErrFrozen
	}
	id := DocID(ix.Docs())
	ix.nameBuild.add(name)
	ix.lens = append(ix.lens, uint32(len(toks)))
	ix.totalLn += int64(len(toks))
	if ix.tf == nil {
		ix.tf = map[string]int32{}
	}
	tf := ix.tf
	clear(tf)
	for _, t := range toks {
		tf[t]++
	}
	// Map order only decides which term's list is appended to first; each
	// list still gets this document's posting after every earlier one's.
	for term, f := range tf {
		ix.build[term] = append(ix.build[term], Posting{Doc: id, TF: f})
	}
	return id, nil
}

// corpusStats is the collection-wide statistics BM25 scoring depends on:
// document count, summed analyzed length, and per-term document frequency.
// A standalone index freezes with its own stats; a segment of a Segments
// reader freezes with the stats of the whole segmented collection, which is
// what makes scatter-gather scoring byte-identical to one merged index.
type corpusStats struct {
	docs    int
	totalLn int64
	df      func(term string) int
}

// localStats returns the index's own collection statistics.
func (ix *Index) localStats() corpusStats {
	return corpusStats{docs: ix.Docs(), totalLn: ix.totalLn, df: ix.df}
}

// Freeze finalizes the index: the sorted term table, the flat posting
// columns, each term's book of (TF, impact) pairs and the length column are
// built, the accumulator pool is sized, and the index becomes searchable.
// Adding after Freeze fails.
func (ix *Index) Freeze() { ix.freezeWith(ix.localStats()) }

// freezeWith finalizes the index against the given collection statistics.
// Freeze passes the index's own stats; NewSegments passes the union stats
// of all segments so per-posting impacts (idf, length normalization) come
// out bit-identical to a monolithic build of the whole collection.
func (ix *Index) freezeWith(cs corpusStats) {
	if ix.frozen {
		return
	}
	var avg float64
	if cs.docs > 0 {
		avg = float64(cs.totalLn) / float64(cs.docs)
	}
	D := len(ix.lens)
	terms := make([]string, 0, len(ix.build))
	var npost, nsparse, nbitmaps int
	var maxDoc DocID
	for term, pl := range ix.build {
		terms = append(terms, term)
		npost += len(pl)
		switch kindOf(len(pl), D) {
		case sparseList:
			nsparse += len(pl)
			maxDoc = max(maxDoc, pl[len(pl)-1].Doc) // lists are in doc order
		case bitmapList:
			nbitmaps++
		}
	}
	sort.Strings(terms)
	var maxLen uint32
	for _, n := range ix.lens {
		maxLen = max(maxLen, n)
	}
	ix.doclen = newColumn(D, uint64(maxLen))
	for d, n := range ix.lens {
		ix.doclen.set(d, uint64(n))
	}
	var dict frontBuilder
	for _, term := range terms {
		dict.add(term)
	}
	ix.dict = dict.table()
	ix.postOff = newColumn(len(terms)+1, uint64(npost))
	ix.docs = newColumn(nsparse, uint64(maxDoc))
	W := words(D)
	ix.bitmap = make([]uint64, nbitmaps*W)
	codes := make([]uint32, npost)
	bookOff := make([]uint64, len(terms)+1)
	var bitOrd, fullOrd, ranks []uint32
	var bk book
	i, sparse := 0, 0
	for o, term := range terms {
		idf := idfFor(cs.docs, cs.df(term))
		pl := ix.build[term]
		bk.start()
		for _, p := range pl {
			codes[i] = bk.code(uint32(p.TF), ix.impact(idf, p, avg))
			i++
		}
		ix.postOff.set(o+1, uint64(i))
		bookOff[o+1] = uint64(len(bk.imp))
		switch kindOf(len(pl), D) {
		case sparseList:
			for _, p := range pl {
				ix.docs.set(sparse, uint64(p.Doc))
				sparse++
			}
		case bitmapList:
			bm := ix.bitmap[len(bitOrd)*W:][:W]
			for _, p := range pl {
				bm[p.Doc>>6] |= 1 << (p.Doc & 63)
			}
			r := 0
			for w, x := range bm {
				if w > 0 && w%rankEvery == 0 {
					ranks = append(ranks, uint32(r))
				}
				r += bits.OnesCount64(x)
			}
			bitOrd = append(bitOrd, uint32(o))
		case fullList:
			fullOrd = append(fullOrd, uint32(o))
		}
	}
	ix.codes = columnOf(codes)
	ix.bookOff = columnOf(bookOff)
	ix.bookTF = columnOf(bk.tf)
	ix.bookImp = bk.imp
	ix.bitOrd = columnOf(bitOrd)
	ix.fullOrd = columnOf(fullOrd)
	ix.ranks = columnOf(ranks)
	ix.indexDense()
	ix.names, ix.nameBuild = ix.nameBuild.table(), frontBuilder{}
	ix.build, ix.tf, ix.lens = nil, nil, nil
	ix.scratch.New = func() any { return NewAccum(D, &ix.scratch) }
	ix.frozen = true
}

// bookScanMax is the book size up to which book.code finds a pair by a
// linear scan; a longer book indexes its pairs in a map.
const bookScanMax = 16

// book accumulates the books of a frozen index's terms, one term at a time:
// tf and imp hold every entry so far, the current term's from first on.
type book struct {
	tf    []uint32
	imp   []float32
	first int
	index map[uint64]uint32 // pair key → code, once the term's book is long
}

// pairKey packs a (TF, impact) pair into one comparable value: impacts
// compare by their bits.
func pairKey(tf uint32, imp float32) uint64 { return uint64(tf)<<32 | uint64(math.Float32bits(imp)) }

// start opens the next term's book.
func (b *book) start() { b.first, b.index = len(b.imp), nil }

// code returns the current term's code for the pair (tf, imp), adding the
// pair to its book on its first appearance.
func (b *book) code(tf uint32, imp float32) uint32 {
	key := pairKey(tf, imp)
	if b.index != nil {
		if c, ok := b.index[key]; ok {
			return c
		}
	} else {
		for e := b.first; e < len(b.imp); e++ {
			if pairKey(b.tf[e], b.imp[e]) == key {
				return uint32(e - b.first)
			}
		}
	}
	c := uint32(len(b.imp) - b.first)
	b.tf = append(b.tf, tf)
	b.imp = append(b.imp, imp)
	if b.index != nil {
		b.index[key] = c
	} else if c+1 == bookScanMax {
		b.index = make(map[uint64]uint32, 2*bookScanMax)
		for e := b.first; e < len(b.imp); e++ {
			b.index[pairKey(b.tf[e], b.imp[e])] = uint32(e - b.first)
		}
	}
	return c
}

// impact computes one posting's full BM25 contribution. It is the same
// arithmetic as bm25 (the retained reference formula) evaluated once at
// freeze time and rounded to float32.
func (ix *Index) impact(idf float64, p Posting, avg float64) float32 {
	tf := float64(p.TF)
	dl := float64(ix.doclen.at(int(p.Doc)))
	return float32(idf * tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*dl/avg)))
}

// Docs returns the number of indexed documents.
func (ix *Index) Docs() int {
	if ix.frozen {
		return ix.names.Len()
	}
	return ix.nameBuild.n
}

// lookup returns the ordinal of term in the frozen term table and whether
// the table holds it.
func (ix *Index) lookup(term string) (int, bool) { return ix.dict.find(term) }

// nameHits names the index's hits (nameDocs).
func (ix *Index) nameHits(hits []Hit) {
	nameDocs(len(hits), func(i int) (*frontTable, int) { return &ix.names, int(hits[i].Doc) },
		func(i int, name string) { hits[i].Name = name })
}

// span returns term ordinal o's range of the posting columns.
func (ix *Index) span(o int) (lo, hi int) {
	return int(ix.postOff.at(o)), int(ix.postOff.at(o + 1))
}

// bookSpan returns term ordinal o's range of the book columns.
func (ix *Index) bookSpan(o int) (lo, hi int) {
	return int(ix.bookOff.at(o)), int(ix.bookOff.at(o + 1))
}

// postings returns term ordinal o's doc-ordered postings and their impacts,
// read from the list's documents and codes through the term's book into new
// slices. The serving paths read the columns in place; this is the impact
// order's and the reference scorer's form.
func (ix *Index) postings(o int) ([]Posting, []float32) {
	l := ix.list(o)
	b, _ := ix.bookSpan(o)
	post := make([]Posting, l.hi-l.lo)
	imps := make([]float32, l.hi-l.lo)
	var bm []uint64
	if l.kind == bitmapList {
		bm = ix.bitmapWords(l.at)
	}
	d := -1
	for i := range post {
		switch l.kind {
		case sparseList:
			d = int(ix.docs.at(l.at + i))
		case bitmapList:
			for d++; bm[d>>6]>>(d&63)&1 == 0; d++ {
			}
		case fullList:
			d = i
		}
		e := b + int(ix.codes.at(l.lo+i))
		post[i] = Posting{Doc: DocID(d), TF: int32(ix.bookTF.at(e))}
		imps[i] = ix.bookImp[e]
	}
	return post, imps
}

// avgDocLen returns the mean analyzed document length.
func (ix *Index) avgDocLen() float64 {
	if ix.Docs() == 0 {
		return 0
	}
	return float64(ix.totalLn) / float64(ix.Docs())
}

// idf returns the BM25 idf of a term against this index's own collection
// (0 for unknown terms).
func (ix *Index) idf(term string) float64 {
	return idfFor(ix.Docs(), ix.df(term))
}

// idfFor computes the BM25 idf for a term with document frequency df in a
// collection of n documents (0 for df == 0).
func idfFor(n, df int) float64 {
	if df == 0 {
		return 0
	}
	nf, dff := float64(n), float64(df)
	return math.Log(1 + (nf-dff+0.5)/(dff+0.5))
}

// bm25 scores one posting from scratch: the reference formula the impact
// vectors are precomputed from. Kept for the equivalence tests.
func (ix *Index) bm25(term string, p Posting) float64 {
	idf := ix.idf(term)
	if idf == 0 {
		return 0
	}
	tf := float64(p.TF)
	dl := float64(ix.doclen.at(int(p.Doc)))
	denom := tf + bm25K1*(1-bm25B+bm25B*dl/ix.avgDocLen())
	return idf * tf * (bm25K1 + 1) / denom
}

// Hit is one ranked retrieval result.
type Hit struct {
	Doc   DocID
	Name  string
	Score float64
}

// SearchStats reports the work a query performed — the currency of the
// top-N optimization experiments, and the kernel payload of the query
// layer's explain plans.
type SearchStats struct {
	// TermsMatched counts the query's analyzed terms present in the
	// vocabulary (the terms that contributed postings).
	TermsMatched int
	// PostingsScored counts scored (doc, term) pairs.
	PostingsScored int
	// DocsTouched counts distinct documents receiving any score.
	DocsTouched int
	// Terminated reports whether early termination fired before the lists
	// were exhausted.
	Terminated bool
}

// Search runs an exhaustive ranked BM25 query (disjunctive semantics) and
// returns the top k hits: every posting of every query term is scored. It is
// the full scan E7 compares its top-N against; Segments.Search and
// SearchSegments, which rank the keyword pages, run the top-k kernel
// (maxscore.go). The hot path is allocation-free in steady state: impacts
// are precomputed at Freeze into each term's book, scores accumulate into a
// pooled epoch-stamped dense array, and the top k are selected with a
// bounded min-heap.
func (ix *Index) Search(query string, k int) ([]Hit, SearchStats, error) {
	if !ix.frozen {
		return nil, SearchStats{}, ErrNotFrozen
	}
	terms := dedupe(Analyze(query))
	if len(terms) == 0 {
		return nil, SearchStats{}, ErrEmptyQry
	}
	return ix.searchDense(terms, k)
}

// searchDense is the dense scan of Search: every posting of the terms
// scored into a pooled accumulator (scoreTerms), and the top k selected
// from it and named.
func (ix *Index) searchDense(terms []string, k int) ([]Hit, SearchStats, error) {
	ac := ix.getAccum()
	defer ac.Release()
	stats, err := ix.scoreTerms(terms, ac)
	if err != nil {
		return nil, stats, err
	}
	return ix.topKDense(ac, k), stats, nil
}

// rank returns the top k documents for the terms, unnamed, with the top-k
// kernel (maxscore.go), whose lists the leased accumulator holds. A depth
// that reaches every matching document (k <= 0, or k at least the union of
// the lists) prunes nothing, so it takes the dense scan into the same
// accumulator. DocsTouched is the exact size of the union either way, and
// Terminated reports that the kernel left postings unread.
func (ix *Index) rank(terms []string, k int) ([]Hit, SearchStats, error) {
	ac := ix.getAccum()
	defer ac.Release()
	if k > 0 {
		ql, err := ix.queryLists(terms, ac)
		if err != nil {
			return nil, SearchStats{}, err
		}
		if total := ql.union(); k < total {
			hits, scored := ql.topK(k)
			return hits, SearchStats{TermsMatched: ql.count(), PostingsScored: scored, DocsTouched: total, Terminated: scored < ql.postings()}, nil
		}
	}
	stats, err := ix.scoreTerms(terms, ac)
	if err != nil {
		return nil, stats, err
	}
	return ac.TopK(k), stats, nil
}

// scoreTerms accumulates every term's full posting list into ac, in term
// order — the dense scan shared by Search, ScoreQuery and the top-k
// kernel's deep pages, so their per-doc float64 sums are identical by
// construction. A list is checked (checkList) before it is scored.
func (ix *Index) scoreTerms(terms []string, ac *Accum) (SearchStats, error) {
	var stats SearchStats
	for _, term := range terms {
		o, ok := ix.lookup(term)
		if !ok {
			continue
		}
		if err := ix.checkList(o, term); err != nil {
			return stats, err
		}
		l := ix.list(o)
		blo, bhi := ix.bookSpan(o)
		book := ix.bookImp[blo:bhi]
		switch codes := ix.codes.vals.(type) {
		case []uint8:
			scoreAt(ix, l, codes[l.lo:l.hi], book, ac)
		case []uint16:
			scoreAt(ix, l, codes[l.lo:l.hi], book, ac)
		default:
			scoreAt(ix, l, ix.codes.vals.([]uint32)[l.lo:l.hi], book, ac)
		}
		stats.TermsMatched++
		stats.PostingsScored += l.hi - l.lo
	}
	stats.DocsTouched = len(ac.touched)
	return stats, nil
}

// scoreAt scores list l, whose codes are given, by its kind: a sparse list
// over its doc IDs at the doc-ID column's width, a bitmap over its set bits
// and a full list over every document.
func scoreAt[C width](ix *Index, l list, codes []C, book []float32, ac *Accum) {
	switch l.kind {
	case bitmapList:
		scoreBits(ix.bitmapWords(l.at), codes, book, ac)
	case fullList:
		scoreFull(codes, book, ac)
	default:
		n := len(codes)
		switch docs := ix.docs.vals.(type) {
		case []uint8:
			scoreList(docs[l.at:l.at+n], codes, book, ac)
		case []uint16:
			scoreList(docs[l.at:l.at+n], codes, book, ac)
		default:
			scoreList(ix.docs.vals.([]uint32)[l.at:l.at+n], codes, book, ac)
		}
	}
}

// checkList verifies term ordinal o's list the first time a query reads it
// from an opened index, whose bulk posting blocks carry no verified
// checksum: a sparse list's doc IDs ascend strictly inside the segment, a
// bitmap passes checkBitmap, and every code lies inside the term's book.
// The kernels then index the accumulator and the book, gallop over the doc
// IDs and rank into the bitmaps without checking each posting. A list that
// fails is not marked, so every query that reads it fails.
func (ix *Index) checkList(o int, term string) error {
	if ix.checked == nil {
		return nil
	}
	word, bit := &ix.checked[o/32], uint32(1)<<(o%32)
	if word.Load()&bit != 0 {
		return nil
	}
	l := ix.list(o)
	blo, bhi := ix.bookSpan(o)
	docs, book := uint64(ix.Docs()), uint64(bhi-blo)
	switch l.kind {
	case sparseList:
		for i := 0; i < l.hi-l.lo; i++ {
			d := ix.docs.at(l.at + i)
			if d >= docs {
				return fmt.Errorf("ir: term %q posting %d names doc %d of %d", term, i, d, docs)
			}
			if i > 0 && d <= ix.docs.at(l.at+i-1) {
				return fmt.Errorf("ir: term %q posting %d names doc %d after doc %d", term, i, d, ix.docs.at(l.at+i-1))
			}
		}
	case bitmapList:
		if err := ix.checkBitmap(l.at, term, l.hi-l.lo); err != nil {
			return err
		}
	}
	for i := l.lo; i < l.hi; i++ {
		if c := ix.codes.at(i); c >= book {
			return fmt.Errorf("ir: term %q posting %d has code %d, past its book of %d", term, i-l.lo, c, book)
		}
	}
	for {
		old := word.Load()
		if word.CompareAndSwap(old, old|bit) {
			return nil
		}
	}
}

// scoreList adds each posting's impact, its code's entry in book, to its
// document's score. It is Accum.Add over a whole list with the
// accumulator's slices and epoch held in locals: through ac the compiler
// reloads them after every store. scoreBits and scoreFull are the same loop
// over a bitmap's set bits and over every document.
func scoreList[D, C width](docs []D, codes []C, book []float32, ac *Accum) {
	stamps, epoch, touched := ac.stamps, ac.epoch, ac.touched
	scores := ac.scores[:len(stamps)]
	codes = codes[:len(docs)]
	for i, d := range docs {
		v := float64(book[codes[i]])
		if stamps[d] != epoch {
			stamps[d] = epoch
			scores[d] = v
			touched = append(touched, DocID(d))
			continue
		}
		scores[d] += v
	}
	ac.touched = touched
}

func scoreBits[C width](bm []uint64, codes []C, book []float32, ac *Accum) {
	stamps, epoch, touched := ac.stamps, ac.epoch, ac.touched
	scores := ac.scores[:len(stamps)]
	i := 0
	for w, x := range bm {
		for ; x != 0; x &= x - 1 {
			d := w<<6 | bits.TrailingZeros64(x)
			v := float64(book[codes[i]])
			i++
			if stamps[d] != epoch {
				stamps[d] = epoch
				scores[d] = v
				touched = append(touched, DocID(d))
				continue
			}
			scores[d] += v
		}
	}
	ac.touched = touched
}

func scoreFull[C width](codes []C, book []float32, ac *Accum) {
	stamps, epoch, touched := ac.stamps, ac.epoch, ac.touched
	scores := ac.scores[:len(stamps)]
	stamps = stamps[:len(codes)]
	for d, c := range codes {
		v := float64(book[c])
		if stamps[d] != epoch {
			stamps[d] = epoch
			scores[d] = v
			touched = append(touched, DocID(d))
			continue
		}
		scores[d] += v
	}
	ac.touched = touched
}

// df returns a term's document frequency: its posting count, in the build
// lists before Freeze and in the term table after.
func (ix *Index) df(term string) int {
	if !ix.frozen {
		return len(ix.build[term])
	}
	if o, ok := ix.lookup(term); ok {
		lo, hi := ix.span(o)
		return hi - lo
	}
	return 0
}

// dedupeSetThreshold is the unique-term count past which dedupe switches
// from the allocation-free linear scan to a set.
const dedupeSetThreshold = 32

// dedupe removes duplicate terms in place, preserving first-occurrence
// order. Interactive queries have a handful of terms, where a linear scan
// over the kept prefix beats a set and allocates nothing; past the
// threshold it builds a set so many-term queries (long rank texts, document
// bodies used as queries) stay O(n) instead of O(n²).
func dedupe(terms []string) []string {
	out := terms[:0]
	var seen map[string]struct{}
	for i, t := range terms {
		if seen != nil {
			if _, dup := seen[t]; !dup {
				seen[t] = struct{}{}
				out = append(out, t)
			}
			continue
		}
		dup := false
		for _, u := range out {
			if u == t {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, t)
		}
		if len(out) > dedupeSetThreshold {
			seen = make(map[string]struct{}, len(out)+len(terms)-i)
			for _, u := range out {
				seen[u] = struct{}{}
			}
		}
	}
	return out
}
