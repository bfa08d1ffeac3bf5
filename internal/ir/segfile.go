package ir

// Zero-copy segment persistence for the text-retrieval kernel. A frozen
// Segments reader serializes into the segfile container as flat,
// 64-byte-aligned columns — doc-ordered posting doc IDs and book codes, each
// term's book of distinct (TF, float32 BM25 impact) pairs, per-term posting
// and book offsets, doc lengths, and the sorted term dictionary and the page
// names, both front-coded (frontcode.go) — and opens back up with one mmap
// plus an O(terms + book entries + documents) check: the reconstructed
// Index's term table, names, offsets, doc IDs, codes, books and lengths are
// the mapped blocks themselves (segfile's typed views), so no posting is
// decoded, no per-term structure is built on the heap, queries find their
// terms by binary search over the mapped dictionary's restart heads, and the
// kernels (maxscore.go and scoreTerms) score straight over the file's pages.
// No idf is stored: every impact has it folded in, and a term's bound in the
// top-k kernel is the largest impact in its book.
//
// A posting stores no TF and no impact of its own, only its code: the index
// of its (TF, impact) pair in its term's book, in first-appearance order.
// Within a term the impact depends on the TF and the document's length, and
// a site's pages fall into few length classes, so books are short (at
// dlbench's site at most 3 entries, 10,419 over 10,060 terms for 134,030
// postings) and a code is one byte where the pair took five.
//
// Every integer column is stored at the narrowest of 1, 2, 4 and 8 bytes
// that holds its largest value (column.go), and the segment's meta record
// names each width: at dlbench's shape (≤ 2,088 documents a segment) doc IDs
// are u16 and codes and TFs u8, a segment past 65,536 documents stores u32
// doc IDs, and a term with more than 256 distinct pairs makes the segment's
// codes u16. The rule needs no option: a heap build and the file it writes
// hold the same columns. Impacts keep their float32 bits.
//
// Byte-identity: segments persist exactly the columns Freeze built — the
// sorted term table, impact float32 bits, and doc order —
// so a search over an opened file accumulates the same float32 values in the
// same order as the heap-built index and returns byte-identical hits,
// scores, stats, and tie-breaks (locked by segfile_test.go across 1/2/4-way
// splits).
//
// Block layout (names within the container; uW is an unsigned column of
// the width the segment's meta record gives it; R is restartEvery):
//
//	ir/meta            record: u32 irVersion | u32 nsegs | u64 docs |
//	                   u64 vocab | u64 signature
//	ir/<i>/meta        record: u32 docs | u64 totalLen | u32 terms |
//	                   u64 postings | u64 book | u8 offWidth |
//	                   u8 docWidth | u8 codeWidth | u8 lenWidth |
//	                   u8 bookOffWidth | u8 tfWidth | u32 bitmaps |
//	                   u32 fulls | u8 bitOrdWidth | u8 fullOrdWidth |
//	                   u8 rankWidth | u8 termHeadWidth | u8 nameHeadWidth
//	ir/<i>/terms       the sorted terms, front-coded
//	ir/<i>/termhead    uW[⌈T/R⌉] offsets of the restart heads in terms
//	ir/<i>/postoff     uW[T+1] posting offsets per term (W ≤ 8)
//	ir/<i>/bookoff     uW[T+1] book offsets per term    (W ≤ 8)
//	ir/<i>/booktf      uW[B] TF of each book entry      (W ≤ 4)
//	ir/<i>/bookimp     f32[B] impact of each book entry
//	ir/<i>/postdoc     uW[P] doc IDs in doc order (W ≤ 4; bulk, lazily paged)
//	ir/<i>/postcode    uW[P] book codes of postdoc (W ≤ 4; bulk, lazily paged)
//	ir/<i>/bitord      uW[bitmaps] the bitmap lists' term ordinals (W ≤ 4)
//	ir/<i>/fullord     uW[fulls] the full lists' term ordinals (W ≤ 4)
//	ir/<i>/bitmap      u64 words of each bitmap list (bulk)
//	ir/<i>/bitrank     uW a rank sample every 8 words of each bitmap (W ≤ 4)
//	ir/<i>/names       the doc names in doc order, front-coded
//	ir/<i>/namehead    uW[⌈D/R⌉] offsets of the restart heads in names
//	ir/<i>/doclen      uW[D] analyzed token counts (W ≤ 4)
//
// Open verifies the container structure plus the checksums of every
// structural block (meta, dictionaries, offset tables, books, names,
// doclen), that every column holds exactly as many values of its width as
// the meta record counts, that both front-coded tables decode (readFront:
// the dictionary sorted, non-empty and distinct, and exactly as many names
// as documents), and that every book is one a freeze can write: a term with
// postings has 1 to as many entries as postings, every TF is positive and
// every impact finite and non-negative. The two bulk posting
// blocks are size-validated but never checksummed, preserving on-demand
// paging. The first query that reads a term's list verifies it (checkList):
// a doc ID outside its segment or out of ascending order, or a code past its
// term's book, fails that query and every later one that reads the list.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"repro/internal/segfile"
	"repro/internal/segset"
)

// irFormatVersion versions the ir block layout inside the container
// (independent of the container version). Version 2 dropped the
// impact-ordered posting blocks; version 3 split the 8-byte postings into
// doc-ID and TF columns and stores every integer column at its narrowest
// width; version 4 replaced the per-posting TF and impact columns with a
// code into each term's book of distinct (TF, impact) pairs; version 5
// dropped the per-term idf block, which only the impact-ordered top-N's
// ceilings read; version 6 stores a list of more than a sixteenth of its
// segment as a bitmap and a list of the whole segment as nothing
// (bitmap.go); version 7 front-codes the dictionary and the page names
// (frontcode.go). A cache of an older version is refused and rebuilt.
const irFormatVersion = 7

// fileMeta is the ir/meta record.
type fileMeta struct {
	Version, Segments uint32
	Docs, Vocab       uint64
	Signature         uint64
}

// segMeta is the ir/<i>/meta record: Book counts the book entries of all
// terms, Bitmaps and Fulls the bitmap and full lists. The widths are the
// bytes per value of the postoff, postdoc, postcode, doclen, bookoff,
// booktf, bitord, fullord, bitrank, termhead and namehead columns.
type segMeta struct {
	Docs                                    uint32
	TotalLen                                uint64
	Terms                                   uint32
	Postings, Book                          uint64
	OffWidth, DocWidth, CodeWidth, LenWidth uint8
	BookOffWidth, TFWidth                   uint8
	Bitmaps, Fulls                          uint32
	BitOrdWidth, FullOrdWidth, RankWidth    uint8
	TermHeadWidth, NameHeadWidth            uint8
}

// ErrSignature reports that an opened segfile was written for a different
// corpus than the caller expected (see WriteSegments' signature argument).
var ErrSignature = errors.New("ir: segment file signature mismatch")

// WriteSegments persists a frozen Segments reader to w in segfile form.
// signature is an opaque caller-chosen corpus fingerprint stored in the
// file and checked by Open; pass 0 to opt out. Writing is deterministic:
// the same frozen reader always produces the same bytes.
func WriteSegments(w io.Writer, s *Segments, signature uint64) error {
	if s == nil || len(s.segs) == 0 {
		return errors.New("ir: WriteSegments needs at least one segment")
	}
	sw, err := segfile.NewWriter(w)
	if err != nil {
		return err
	}
	sw.Record("ir/meta", fileMeta{irFormatVersion, uint32(len(s.segs)), uint64(s.Docs()), uint64(s.vocb), signature})
	for i, ix := range s.segs {
		if !ix.frozen {
			return fmt.Errorf("ir: segment %d is not frozen", i)
		}
		writeIndexBlocks(sw, fmt.Sprintf("ir/%d/", i), ix)
	}
	return sw.Close()
}

// writeIndexBlocks writes one segment: the frozen index's own columns,
// block for block.
func writeIndexBlocks(sw *segfile.Writer, prefix string, ix *Index) {
	T := ix.dict.Len()
	sw.Record(prefix+"meta", segMeta{
		Docs: uint32(ix.Docs()), TotalLen: uint64(ix.totalLn), Terms: uint32(T),
		Postings: ix.postOff.at(T), Book: uint64(len(ix.bookImp)),
		OffWidth: ix.postOff.width(), DocWidth: ix.docs.width(), CodeWidth: ix.codes.width(), LenWidth: ix.doclen.width(),
		BookOffWidth: ix.bookOff.width(), TFWidth: ix.bookTF.width(),
		Bitmaps: uint32(ix.bitOrd.len()), Fulls: uint32(ix.fullOrd.len()),
		BitOrdWidth: ix.bitOrd.width(), FullOrdWidth: ix.fullOrd.width(), RankWidth: ix.ranks.width(),
		TermHeadWidth: ix.dict.heads.width(), NameHeadWidth: ix.names.heads.width(),
	})
	sw.Block(prefix+"terms", ix.dict.data)
	sw.Block(prefix+"termhead", ix.dict.heads.bytes())
	sw.Block(prefix+"postoff", ix.postOff.bytes())
	sw.Block(prefix+"bookoff", ix.bookOff.bytes())
	sw.Block(prefix+"booktf", ix.bookTF.bytes())
	sw.Block(prefix+"bookimp", segfile.Bytes(ix.bookImp))
	sw.Block(prefix+"postdoc", ix.docs.bytes())
	sw.Block(prefix+"postcode", ix.codes.bytes())
	sw.Block(prefix+"bitord", ix.bitOrd.bytes())
	sw.Block(prefix+"fullord", ix.fullOrd.bytes())
	sw.Block(prefix+"bitmap", segfile.Bytes(ix.bitmap))
	sw.Block(prefix+"bitrank", ix.ranks.bytes())
	sw.Block(prefix+"names", ix.names.data)
	sw.Block(prefix+"namehead", ix.names.heads.bytes())
	sw.Block(prefix+"doclen", ix.doclen.bytes())
}

// OpenSegmentsFile maps the segfile at path and reconstructs the Segments
// reader over it: postings, books, the dictionary and the document names
// alias the mapping, so using the reader after closing it is invalid.
// wantSignature, when non-zero, must match the signature the file was
// written with (ErrSignature otherwise) — the staleness guard for cached
// text-index files. The caller owns the closer.
func OpenSegmentsFile(path string, wantSignature uint64) (*Segments, io.Closer, error) {
	return segfile.OpenAs(path, func(r *segfile.Reader) (*Segments, error) {
		return OpenSegmentsReader(r, wantSignature)
	})
}

// OpenSegmentsReader reconstructs a frozen Segments over an already-parsed
// container. Everything the reader returns aliases the container's bytes.
func OpenSegmentsReader(r *segfile.Reader, wantSignature uint64) (*Segments, error) {
	var meta fileMeta
	if err := r.Record("ir/meta", &meta); err != nil {
		return nil, err
	}
	if meta.Version != irFormatVersion {
		return nil, fmt.Errorf("ir: unsupported segment layout version %d (want %d)", meta.Version, irFormatVersion)
	}
	if wantSignature != 0 && meta.Signature != wantSignature {
		return nil, fmt.Errorf("%w: file %#x, want %#x", ErrSignature, meta.Signature, wantSignature)
	}
	nsegs := int(meta.Segments)
	if nsegs < 1 || nsegs > maxSegments {
		return nil, fmt.Errorf("ir: implausible segment count %d", meta.Segments)
	}
	if meta.Docs > math.MaxInt32 || meta.Vocab > math.MaxInt32 {
		return nil, fmt.Errorf("ir: implausible totals (docs=%d, vocab=%d)", meta.Docs, meta.Vocab)
	}
	segs := make([]*Index, nsegs)
	sizes := make([]int, nsegs)
	docs := 0
	for i := range segs {
		ix, err := openIndexBlocks(r, fmt.Sprintf("ir/%d/", i))
		if err != nil {
			return nil, fmt.Errorf("ir: segment %d: %w", i, err)
		}
		if ix.Docs() > math.MaxInt32-docs {
			return nil, fmt.Errorf("ir: segment %d overflows the doc-ID space", i)
		}
		segs[i], sizes[i] = ix, ix.Docs()
		docs += ix.Docs()
	}
	if uint64(docs) != meta.Docs {
		return nil, fmt.Errorf("ir: segments hold %d docs, header claims %d", docs, meta.Docs)
	}
	return &Segments{segs: segs, bases: segset.NewBases(sizes), vocb: int(meta.Vocab)}, nil
}

// maxSegments bounds the per-file segment count against hostile headers.
const maxSegments = 1 << 16

func openIndexBlocks(r *segfile.Reader, prefix string) (*Index, error) {
	var meta segMeta
	if err := r.Record(prefix+"meta", &meta); err != nil {
		return nil, err
	}
	if meta.Docs > math.MaxInt32 || meta.Terms > math.MaxInt32 || meta.TotalLen > math.MaxInt64 ||
		meta.Postings > math.MaxInt || meta.Book > meta.Postings {
		return nil, fmt.Errorf("ir: implausible segment shape (docs=%d, terms=%d, totalLen=%d, postings=%d, book=%d)",
			meta.Docs, meta.Terms, meta.TotalLen, meta.Postings, meta.Book)
	}
	D, T, P, B := int(meta.Docs), int(meta.Terms), int(meta.Postings), int(meta.Book)

	dict, err := readFront(r, prefix+"terms", prefix+"termhead", T, meta.TermHeadWidth, true)
	if err != nil {
		return nil, err
	}
	postOff, err := readColumn(r, prefix+"postoff", T+1, meta.OffWidth, 8, true)
	if err != nil {
		return nil, err
	}
	bookOff, err := readColumn(r, prefix+"bookoff", T+1, meta.BookOffWidth, 8, true)
	if err != nil {
		return nil, err
	}
	bookTF, err := readColumn(r, prefix+"booktf", B, meta.TFWidth, 4, true)
	if err != nil {
		return nil, err
	}
	bookImp, err := segfile.Structural[float32](r, prefix+"bookimp", B)
	if err != nil {
		return nil, err
	}
	names, err := readFront(r, prefix+"names", prefix+"namehead", D, meta.NameHeadWidth, false)
	if err != nil {
		return nil, err
	}
	docLen, err := readColumn(r, prefix+"doclen", D, meta.LenWidth, 4, true)
	if err != nil {
		return nil, err
	}
	bitOrd, err := readColumn(r, prefix+"bitord", int(meta.Bitmaps), meta.BitOrdWidth, 4, true)
	if err != nil {
		return nil, err
	}
	fullOrd, err := readColumn(r, prefix+"fullord", int(meta.Fulls), meta.FullOrdWidth, 4, true)
	if err != nil {
		return nil, err
	}
	W := words(D)
	if uint64(meta.Bitmaps)*uint64(W) > uint64(P) {
		return nil, fmt.Errorf("ir: %d bitmaps of %d words for %d postings", meta.Bitmaps, W, P)
	}
	ranks, err := readColumn(r, prefix+"bitrank", int(meta.Bitmaps)*samples(W), meta.RankWidth, 4, true)
	if err != nil {
		return nil, err
	}

	// The index serves straight from these blocks, so check what span,
	// bookSpan and list rely on, in O(terms) (readFront has checked what
	// lookup relies on): the posting and book offsets ascend from 0 to P and
	// B, a term with postings has at least one book entry and no more than it
	// has postings, and each list is stored as the format's rule says
	// (bitmap.go), the bitmap and full ordinals naming ascending terms. Only
	// a refusal decodes its term.
	prev, prevBook := postOff.at(0), bookOff.at(0)
	bi, fi, sparse := 0, 0, 0
	for t := 0; t < T; t++ {
		next, nextBook := postOff.at(t+1), bookOff.at(t+1)
		if prev > next {
			return nil, fmt.Errorf("ir: term %q postings [%d, %d) descend", dict.At(t), prev, next)
		}
		if prevBook > nextBook {
			return nil, fmt.Errorf("ir: term %q book [%d, %d) descends", dict.At(t), prevBook, nextBook)
		}
		n, nb := next-prev, nextBook-prevBook
		if nb > n || (n > 0 && nb == 0) {
			return nil, fmt.Errorf("ir: term %q has %d book entries for %d postings", dict.At(t), nb, n)
		}
		kind := sparseList
		if bi < bitOrd.len() && bitOrd.at(bi) == uint64(t) {
			kind = bitmapList
			bi++
		}
		if fi < fullOrd.len() && fullOrd.at(fi) == uint64(t) {
			if kind != sparseList {
				return nil, fmt.Errorf("ir: term %q is stored both as a bitmap and full", dict.At(t))
			}
			kind = fullList
			fi++
		}
		if n > uint64(P) || kindOf(int(n), D) != kind {
			return nil, fmt.Errorf("ir: term %q holds %d of %d docs but is stored %s", dict.At(t), n, D, kind)
		}
		if kind == sparseList {
			sparse += int(n)
		}
		prev, prevBook = next, nextBook
	}
	if bi != bitOrd.len() || fi != fullOrd.len() {
		return nil, fmt.Errorf("ir: %d of %d bitmap and %d of %d full ordinals name ascending terms", bi, bitOrd.len(), fi, fullOrd.len())
	}
	if first := postOff.at(0); first != 0 || prev != uint64(P) {
		return nil, fmt.Errorf("ir: posting offsets span [%d, %d), want [0, %d)", first, prev, P)
	}
	if first := bookOff.at(0); first != 0 || prevBook != uint64(B) {
		return nil, fmt.Errorf("ir: book offsets span [%d, %d), want [0, %d)", first, prevBook, B)
	}
	docs, err := readColumn(r, prefix+"postdoc", sparse, meta.DocWidth, 4, false)
	if err != nil {
		return nil, err
	}
	codes, err := readColumn(r, prefix+"postcode", P, meta.CodeWidth, 4, false)
	if err != nil {
		return nil, err
	}
	bitmap, err := segfile.Bulk[uint64](r, prefix+"bitmap", int(meta.Bitmaps)*W)
	if err != nil {
		return nil, err
	}
	// Every book entry is a pair a freeze writes: a posting occurs at least
	// once, and a BM25 impact is finite and non-negative.
	for e, imp := range bookImp {
		if tf := bookTF.at(e); tf == 0 || !(imp >= 0) || math.IsInf(float64(imp), 1) {
			return nil, fmt.Errorf("ir: book entry %d holds TF %d, impact %v", e, tf, imp)
		}
	}
	ix := &Index{
		dict:    dict,
		postOff: postOff,
		docs:    docs,
		codes:   codes,
		bookOff: bookOff,
		bookTF:  bookTF,
		bookImp: bookImp,
		bitOrd:  bitOrd,
		fullOrd: fullOrd,
		bitmap:  bitmap,
		ranks:   ranks,
		names:   names,
		doclen:  docLen,
		totalLn: int64(meta.TotalLen),
		frozen:  true,
		checked: make([]atomic.Uint32, (T+31)/32),
	}
	ix.indexDense()
	n := D
	ix.scratch.New = func() any { return NewAccum(n, &ix.scratch) }
	return ix, nil
}
