package ir

// Zero-copy segment persistence for the text-retrieval kernel. A frozen
// Segments reader serializes into the segfile container as flat,
// 64-byte-aligned arrays — doc-ordered postings, their float32 BM25
// impact vectors, per-term idf, doc-length norms, and the sorted term
// dictionary — and opens back up with one mmap plus an O(terms) dictionary
// scan: every slice of the reconstructed Index aliases the mapped bytes
// directly (segfile's typed views), so no posting is decoded, nothing bulk is
// copied to the heap, and the kernel's accumulator loop in scoreTerms
// scores straight over the file's pages.
//
// Byte-identity: segments persist exactly the arrays Freeze built — impact
// float32 bits, idf float64 bits, and doc order — so a search over an opened
// file accumulates the same float32 values in the same order as the
// heap-built index and returns byte-identical hits, scores, stats, and
// tie-breaks (locked by segfile_test.go across 1/2/4-way splits).
//
// Block layout (names within the container):
//
//	ir/meta            record: u32 irVersion | u32 nsegs | u64 docs |
//	                   u64 vocab | u64 signature
//	ir/<i>/meta        record: u32 docs | u64 totalLen | u32 terms |
//	                   u64 postings
//	ir/<i>/terms       sorted term bytes, concatenated
//	ir/<i>/termoff     u32[T+1] offsets into terms
//	ir/<i>/idf         f64[T]
//	ir/<i>/postoff     u64[T+1] posting offsets per term
//	ir/<i>/docpost     Posting[P] in docOrder      (bulk, lazily paged)
//	ir/<i>/docimp      f32[P] impacts of docpost   (bulk, lazily paged)
//	ir/<i>/names       doc name bytes, concatenated
//	ir/<i>/nameoff     u32[D+1] offsets into names
//	ir/<i>/doclen      i32[D] analyzed token counts
//
// Open verifies the container structure plus the checksums of every
// structural block (meta, dictionaries, offset tables, names, doclen); the
// two bulk posting/impact blocks are size- and bounds-validated but never
// checksummed, preserving on-demand paging. A doc ID in them that lies
// outside its segment fails the query that reads it (scoreTerms).

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/segfile"
	"repro/internal/segset"
)

// irFormatVersion versions the ir block layout inside the container
// (independent of the container version). Version 2 dropped the
// impact-ordered posting blocks; a version-1 cache is refused and rebuilt.
const irFormatVersion = 2

// fileMeta is the ir/meta record.
type fileMeta struct {
	Version, Segments uint32
	Docs, Vocab       uint64
	Signature         uint64
}

// segMeta is the ir/<i>/meta record.
type segMeta struct {
	Docs     uint32
	TotalLen uint64
	Terms    uint32
	Postings uint64
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

// writeIndexBlocks writes one segment. The bulk blocks are the posting
// lists' own arrays, passed to the writer as parts in term order.
func writeIndexBlocks(sw *segfile.Writer, prefix string, ix *Index) {
	terms := make([]string, 0, len(ix.terms))
	for t := range ix.terms {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	idf := make([]float64, len(terms))
	postOff := make([]uint64, len(terms)+1)
	docPost := make([][]byte, len(terms))
	docImp := make([][]byte, len(terms))
	for i, t := range terms {
		pl := ix.terms[t]
		idf[i] = pl.idf
		postOff[i+1] = postOff[i] + uint64(len(pl.docOrder))
		docPost[i] = segfile.Bytes(pl.docOrder)
		docImp[i] = segfile.Bytes(pl.docImp)
	}
	docLen := make([]int32, len(ix.docs))
	for i, d := range ix.docs {
		docLen[i] = d.Len
	}
	sw.Record(prefix+"meta", segMeta{uint32(len(ix.docs)), uint64(ix.totalLn), uint32(len(terms)), postOff[len(terms)]})
	sw.Strings(prefix+"terms", prefix+"termoff", len(terms), func(i int) string { return terms[i] })
	sw.Block(prefix+"idf", segfile.Bytes(idf))
	sw.Block(prefix+"postoff", segfile.Bytes(postOff))
	sw.Block(prefix+"docpost", docPost...)
	sw.Block(prefix+"docimp", docImp...)
	sw.Strings(prefix+"names", prefix+"nameoff", len(ix.docs), func(i int) string { return ix.docs[i].Name })
	sw.Block(prefix+"doclen", segfile.Bytes(docLen))
}

// OpenSegmentsFile maps the segfile at path and reconstructs the Segments
// reader over it: postings, impacts, dictionary strings and document names
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
		if len(ix.docs) > math.MaxInt32-docs {
			return nil, fmt.Errorf("ir: segment %d overflows the doc-ID space", i)
		}
		segs[i], sizes[i] = ix, len(ix.docs)
		docs += len(ix.docs)
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
	if meta.Docs > math.MaxInt32 || meta.Terms > math.MaxInt32 || meta.TotalLen > math.MaxInt64 || meta.Postings > math.MaxInt {
		return nil, fmt.Errorf("ir: implausible segment shape (docs=%d, terms=%d, totalLen=%d, postings=%d)",
			meta.Docs, meta.Terms, meta.TotalLen, meta.Postings)
	}
	D, T, P := int(meta.Docs), int(meta.Terms), int(meta.Postings)

	terms, err := r.Strings(prefix+"terms", prefix+"termoff", T)
	if err != nil {
		return nil, err
	}
	idf, err := segfile.Structural[float64](r, prefix+"idf", T)
	if err != nil {
		return nil, err
	}
	postOff, err := segfile.Structural[uint64](r, prefix+"postoff", T+1)
	if err != nil {
		return nil, err
	}
	names, err := r.Strings(prefix+"names", prefix+"nameoff", D)
	if err != nil {
		return nil, err
	}
	docLen, err := segfile.Structural[int32](r, prefix+"doclen", D)
	if err != nil {
		return nil, err
	}
	docPost, err := segfile.Bulk[Posting](r, prefix+"docpost", P)
	if err != nil {
		return nil, err
	}
	docImp, err := segfile.Bulk[float32](r, prefix+"docimp", P)
	if err != nil {
		return nil, err
	}

	ix := &Index{
		terms:   make(map[string]*postingList, T),
		docs:    make([]docInfo, D),
		totalLn: int64(meta.TotalLen),
		frozen:  true,
	}
	// O(terms) dictionary scan: point each term's postingList into the bulk
	// views, validating the posting offsets on the way. Terms were written
	// sorted; strict ascent also rejects duplicates.
	pls := make([]postingList, T)
	for t, term := range terms {
		if term == "" || (t > 0 && term <= terms[t-1]) {
			return nil, fmt.Errorf("ir: term %d (%q) breaks the sorted dictionary", t, term)
		}
		plo, phi := postOff[t], postOff[t+1]
		if plo > phi || phi > uint64(P) {
			return nil, fmt.Errorf("ir: term %q postings [%d, %d) out of range", term, plo, phi)
		}
		pl := &pls[t]
		pl.docOrder = docPost[plo:phi]
		pl.docImp = docImp[plo:phi]
		pl.idf = idf[t]
		ix.terms[term] = pl
	}
	if postOff[0] != 0 || postOff[T] != uint64(P) {
		return nil, fmt.Errorf("ir: posting offsets span [%d, %d), want [0, %d)", postOff[0], postOff[T], P)
	}
	for d, name := range names {
		ix.docs[d] = docInfo{Name: name, Len: docLen[d]}
	}
	n := D
	ix.scratch.New = func() any { return NewAccum(n, &ix.scratch) }
	return ix, nil
}
