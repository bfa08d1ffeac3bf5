package ir

// Zero-copy segment persistence for the text-retrieval kernel. A frozen
// Segments reader serializes into the segfile container as flat,
// 64-byte-aligned columns — doc-ordered posting doc IDs and term
// frequencies, their float32 BM25 impacts, per-term idf and posting
// offsets, doc lengths, and the sorted term dictionary — and opens back up
// with one mmap plus an O(terms) dictionary check: the reconstructed Index's
// term table, idf, offsets, doc IDs, TFs, impacts and lengths are the mapped
// blocks themselves (segfile's typed views), so no posting is decoded, no
// per-term structure is built on the heap, queries find their terms by
// binary search over the mapped dictionary, and the kernel's accumulator
// loop in scoreTerms scores straight over the file's pages.
//
// Every integer column is stored at the narrowest of 1, 2, 4 and 8 bytes
// that holds its largest value (column.go), and the segment's meta record
// names each width: at dlbench's shape (≤ 2,088 documents a segment, TF ≤ 4)
// doc IDs are u16 and TFs u8, and a segment past 65,536 documents stores
// u32 doc IDs. The rule needs no option: a heap build and the file it writes
// hold the same columns. Impacts keep their float32 bits.
//
// Byte-identity: segments persist exactly the columns Freeze built — the
// sorted term table, impact float32 bits, idf float64 bits, and doc order —
// so a search over an opened file accumulates the same float32 values in the
// same order as the heap-built index and returns byte-identical hits,
// scores, stats, and tie-breaks (locked by segfile_test.go across 1/2/4-way
// splits).
//
// Block layout (names within the container; uW is an unsigned column of
// the width the segment's meta record gives it):
//
//	ir/meta            record: u32 irVersion | u32 nsegs | u64 docs |
//	                   u64 vocab | u64 signature
//	ir/<i>/meta        record: u32 docs | u64 totalLen | u32 terms |
//	                   u64 postings | u8 offWidth | u8 docWidth |
//	                   u8 tfWidth | u8 lenWidth
//	ir/<i>/terms       sorted term bytes, concatenated
//	ir/<i>/termoff     u32[T+1] offsets into terms
//	ir/<i>/idf         f64[T]
//	ir/<i>/postoff     uW[T+1] posting offsets per term (W ≤ 8)
//	ir/<i>/postdoc     uW[P] doc IDs in doc order (W ≤ 4; bulk, lazily paged)
//	ir/<i>/posttf      uW[P] TFs of postdoc       (W ≤ 4; bulk, lazily paged)
//	ir/<i>/postimp     f32[P] impacts of postdoc  (bulk, lazily paged)
//	ir/<i>/names       doc name bytes, concatenated
//	ir/<i>/nameoff     u32[D+1] offsets into names
//	ir/<i>/doclen      uW[D] analyzed token counts (W ≤ 4)
//
// Open verifies the container structure plus the checksums of every
// structural block (meta, dictionaries, offset tables, names, doclen), and
// that every column holds exactly as many values of its width as the meta
// record counts; the three bulk posting blocks are size-validated but never
// checksummed, preserving on-demand paging. A doc ID in them that lies
// outside its segment fails the query that reads it (scoreTerms).

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/segfile"
	"repro/internal/segset"
)

// irFormatVersion versions the ir block layout inside the container
// (independent of the container version). Version 2 dropped the
// impact-ordered posting blocks; version 3 split the 8-byte postings into
// doc-ID and TF columns and stores every integer column at its narrowest
// width. A cache of an older version is refused and rebuilt.
const irFormatVersion = 3

// fileMeta is the ir/meta record.
type fileMeta struct {
	Version, Segments uint32
	Docs, Vocab       uint64
	Signature         uint64
}

// segMeta is the ir/<i>/meta record. The widths are the bytes per value of
// the postoff, postdoc, posttf and doclen columns.
type segMeta struct {
	Docs                                  uint32
	TotalLen                              uint64
	Terms                                 uint32
	Postings                              uint64
	OffWidth, DocWidth, TFWidth, LenWidth uint8
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
	sw.Record(prefix+"meta", segMeta{
		Docs: uint32(ix.Docs()), TotalLen: uint64(ix.totalLn), Terms: uint32(ix.dict.Len()), Postings: uint64(len(ix.imp)),
		OffWidth: ix.postOff.width(), DocWidth: ix.docs.width(), TFWidth: ix.tfs.width(), LenWidth: ix.doclen.width(),
	})
	sw.Table(prefix+"terms", prefix+"termoff", ix.dict)
	sw.Block(prefix+"idf", segfile.Bytes(ix.termIdf))
	sw.Block(prefix+"postoff", ix.postOff.bytes())
	sw.Block(prefix+"postdoc", ix.docs.bytes())
	sw.Block(prefix+"posttf", ix.tfs.bytes())
	sw.Block(prefix+"postimp", segfile.Bytes(ix.imp))
	sw.Table(prefix+"names", prefix+"nameoff", ix.names)
	sw.Block(prefix+"doclen", ix.doclen.bytes())
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
	if meta.Docs > math.MaxInt32 || meta.Terms > math.MaxInt32 || meta.TotalLen > math.MaxInt64 || meta.Postings > math.MaxInt {
		return nil, fmt.Errorf("ir: implausible segment shape (docs=%d, terms=%d, totalLen=%d, postings=%d)",
			meta.Docs, meta.Terms, meta.TotalLen, meta.Postings)
	}
	D, T, P := int(meta.Docs), int(meta.Terms), int(meta.Postings)

	dict, err := r.Table(prefix+"terms", prefix+"termoff", T)
	if err != nil {
		return nil, err
	}
	idf, err := segfile.Structural[float64](r, prefix+"idf", T)
	if err != nil {
		return nil, err
	}
	postOff, err := readColumn(r, prefix+"postoff", T+1, meta.OffWidth, 8, true)
	if err != nil {
		return nil, err
	}
	names, err := r.Table(prefix+"names", prefix+"nameoff", D)
	if err != nil {
		return nil, err
	}
	docLen, err := readColumn(r, prefix+"doclen", D, meta.LenWidth, 4, true)
	if err != nil {
		return nil, err
	}
	docs, err := readColumn(r, prefix+"postdoc", P, meta.DocWidth, 4, false)
	if err != nil {
		return nil, err
	}
	tfs, err := readColumn(r, prefix+"posttf", P, meta.TFWidth, 4, false)
	if err != nil {
		return nil, err
	}
	imp, err := segfile.Bulk[float32](r, prefix+"postimp", P)
	if err != nil {
		return nil, err
	}

	// The index serves straight from these blocks, so check what lookup and
	// span rely on, in O(terms): the dictionary is sorted, with no empty or
	// repeated term, and the posting offsets ascend from 0 to P.
	prev := postOff.at(0)
	for t := 0; t < T; t++ {
		term := dict.At(t)
		if term == "" || (t > 0 && term <= dict.At(t-1)) {
			return nil, fmt.Errorf("ir: term %d (%q) breaks the sorted dictionary", t, term)
		}
		next := postOff.at(t + 1)
		if prev > next {
			return nil, fmt.Errorf("ir: term %q postings [%d, %d) descend", term, prev, next)
		}
		prev = next
	}
	if first := postOff.at(0); first != 0 || prev != uint64(P) {
		return nil, fmt.Errorf("ir: posting offsets span [%d, %d), want [0, %d)", first, prev, P)
	}
	ix := &Index{
		dict:    dict,
		termIdf: idf,
		postOff: postOff,
		docs:    docs,
		tfs:     tfs,
		imp:     imp,
		names:   names,
		doclen:  docLen,
		totalLn: int64(meta.TotalLen),
		frozen:  true,
	}
	n := D
	ix.scratch.New = func() any { return NewAccum(n, &ix.scratch) }
	return ix, nil
}
