package ir

// Dense posting lists as bitmaps. A term's list is stored by how much of its
// segment it covers — Roaring's rule for choosing an array or a bitmap
// container (Chambi, Lemire, Kaser & Godin 2016), at 2-byte doc IDs:
//
//   - a list of at most one sixteenth of the segment's documents is sparse:
//     its doc IDs are a range of the doc-ID column;
//   - a longer list is a bitmap of one bit per document of the segment,
//     words(D) 64-bit words, with a rank sample every rankEvery words;
//   - a list of every document is full and stores no doc IDs at all.
//
// The rule is a constant of the format, applied by Freeze and checked by
// open, so a heap build and the file it writes hold the same columns. Codes
// stay one per posting in doc order whatever the list's kind, so the code of
// a bitmap list's document is found by its rank: the number of set bits
// before it, the nearest rank sample plus at most rankEvery popcounts.

import (
	"fmt"
	"math/bits"
)

// listKind is how a term's posting list is stored.
type listKind uint8

const (
	sparseList listKind = iota
	bitmapList
	fullList
)

func (k listKind) String() string {
	return [...]string{"sparse", "as a bitmap", "full"}[k]
}

// kindOf returns the kind the format stores a list of n documents in a
// segment of docs documents.
func kindOf(n, docs int) listKind {
	switch {
	case n == docs && n > 0:
		return fullList
	case n > docs/16:
		return bitmapList
	}
	return sparseList
}

// rankEvery is the number of bitmap words between two rank samples.
const rankEvery = 8

// words returns the bitmap words of a segment of docs documents.
func words(docs int) int { return (docs + 63) / 64 }

// samples returns the rank samples of a bitmap of w words: sample j counts
// the set bits of its words [0, (j+1)·rankEvery).
func samples(w int) int {
	if w == 0 {
		return 0
	}
	return (w - 1) / rankEvery
}

// denseList is one bitmap or full list, derived from the bitOrd and fullOrd
// columns by indexDense.
type denseList struct {
	ord    int // term ordinal
	bitmap int // index in bitOrd, or -1 for a full list
	before int // postings of the dense lists of lower ordinals
}

// indexDense derives ix.dense from the bitOrd and fullOrd columns, which
// hold ascending and disjoint term ordinals: the dense lists by ordinal,
// then a sentinel past the last term whose before counts every dense
// posting.
func (ix *Index) indexDense() {
	nb, nf := ix.bitOrd.len(), ix.fullOrd.len()
	ix.dense = make([]denseList, 0, nb+nf+1)
	before := 0
	for b, f := 0, 0; b < nb || f < nf; {
		dl := denseList{bitmap: -1, before: before}
		if f == nf || (b < nb && ix.bitOrd.at(b) < ix.fullOrd.at(f)) {
			dl.ord, dl.bitmap = int(ix.bitOrd.at(b)), b
			b++
		} else {
			dl.ord = int(ix.fullOrd.at(f))
			f++
		}
		lo, hi := ix.span(dl.ord)
		before += hi - lo
		ix.dense = append(ix.dense, dl)
	}
	ix.dense = append(ix.dense, denseList{ord: ix.dict.Len(), bitmap: -1, before: before})
}

// list locates term ordinal o's postings: lo and hi bound its codes, and
// at is, for a sparse list, the index of its first doc ID in the doc-ID
// column and, for a bitmap list, its index among the bitmaps.
type list struct {
	kind   listKind
	lo, hi int
	at     int
}

// list returns term ordinal o's list.
func (ix *Index) list(o int) list {
	lo, hi := ix.span(o)
	// The first dense list at or past o, by binary search.
	i, j := 0, len(ix.dense)-1
	for i < j {
		h := int(uint(i+j) >> 1)
		if ix.dense[h].ord < o {
			i = h + 1
		} else {
			j = h
		}
	}
	switch dl := ix.dense[i]; {
	case dl.ord != o:
		return list{sparseList, lo, hi, lo - dl.before}
	case dl.bitmap < 0:
		return list{fullList, lo, hi, 0}
	default:
		return list{bitmapList, lo, hi, dl.bitmap}
	}
}

// bitmapWords returns bitmap b's words.
func (ix *Index) bitmapWords(b int) []uint64 {
	w := words(ix.Docs())
	return ix.bitmap[b*w : (b+1)*w]
}

// rankOf returns the number of set bits of bitmap bm before doc d, where
// bm's first rank sample is ranks[at]: the sample before d's word, plus the
// popcounts of the words and bits between them.
func rankOf(bm []uint64, ranks column, at int, d int) int {
	w := d >> 6
	s := w / rankEvery
	r := 0
	if s > 0 {
		r = int(ranks.at(at + s - 1))
	}
	for _, x := range bm[s*rankEvery : w] {
		r += bits.OnesCount64(x)
	}
	return r + bits.OnesCount64(bm[w]&(1<<(uint(d)&63)-1))
}

// checkBitmap verifies bitmap b, of term's list of n postings, against what
// the kernels rely on: no bit at or past the segment's last document, n set
// bits, and rank samples that count the words before them.
func (ix *Index) checkBitmap(b int, term string, n int) error {
	bm, docs := ix.bitmapWords(b), ix.Docs()
	if tail := docs % 64; tail != 0 {
		if extra := bm[len(bm)-1] >> tail; extra != 0 {
			return fmt.Errorf("ir: term %q bitmap names doc %d of %d", term, docs+bits.TrailingZeros64(extra), docs)
		}
	}
	r, at := 0, b*samples(len(bm))
	for w, x := range bm {
		if w > 0 && w%rankEvery == 0 {
			if s := ix.ranks.at(at + w/rankEvery - 1); s != uint64(r) {
				return fmt.Errorf("ir: term %q rank sample %d is %d, its words hold %d", term, w/rankEvery-1, s, r)
			}
		}
		r += bits.OnesCount64(x)
	}
	if r != n {
		return fmt.Errorf("ir: term %q bitmap holds %d docs, its postings %d", term, r, n)
	}
	return nil
}
