package ir

// Zero-copy segment persistence for the text-retrieval kernel. A frozen
// Segments reader serializes into the segfile container as flat,
// 64-byte-aligned arrays — doc-ordered postings, their float32 BM25
// impact vectors, per-term idf, doc-length norms, and the sorted term
// dictionary — and opens back up with one mmap plus an O(terms) dictionary
// check: the reconstructed Index's term table, idf, offsets, postings and
// impacts are the mapped blocks themselves (segfile's typed views), so no
// posting is decoded, no per-term structure is built on the heap, queries
// find their terms by binary search over the mapped dictionary, and the
// kernel's accumulator loop in scoreTerms scores straight over the file's
// pages.
//
// Byte-identity: segments persist exactly the arrays Freeze built — the
// sorted term table, impact float32 bits, idf float64 bits, and doc order —
// so a search over an opened file accumulates the same float32 values in the
// same order as the heap-built index and returns byte-identical hits,
// scores, stats, and tie-breaks (locked by segfile_test.go across 1/2/4-way
// splits).
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

// writeIndexBlocks writes one segment: the frozen index's own arrays, block
// for block.
func writeIndexBlocks(sw *segfile.Writer, prefix string, ix *Index) {
	sw.Record(prefix+"meta", segMeta{uint32(ix.Docs()), uint64(ix.totalLn), uint32(ix.dict.Len()), uint64(len(ix.post))})
	sw.Table(prefix+"terms", prefix+"termoff", ix.dict)
	sw.Block(prefix+"idf", segfile.Bytes(ix.termIdf))
	sw.Block(prefix+"postoff", segfile.Bytes(ix.postOff))
	sw.Block(prefix+"docpost", segfile.Bytes(ix.post))
	sw.Block(prefix+"docimp", segfile.Bytes(ix.imp))
	sw.Table(prefix+"names", prefix+"nameoff", ix.names)
	sw.Block(prefix+"doclen", segfile.Bytes(ix.doclen))
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
	postOff, err := segfile.Structural[uint64](r, prefix+"postoff", T+1)
	if err != nil {
		return nil, err
	}
	names, err := r.Table(prefix+"names", prefix+"nameoff", D)
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

	// The index serves straight from these blocks, so check what lookup and
	// postings rely on, in O(terms): the dictionary is sorted, with no empty
	// or repeated term, and the posting offsets ascend from 0 to P.
	for t := 0; t < T; t++ {
		term := dict.At(t)
		if term == "" || (t > 0 && term <= dict.At(t-1)) {
			return nil, fmt.Errorf("ir: term %d (%q) breaks the sorted dictionary", t, term)
		}
		if postOff[t] > postOff[t+1] {
			return nil, fmt.Errorf("ir: term %q postings [%d, %d) descend", term, postOff[t], postOff[t+1])
		}
	}
	if postOff[0] != 0 || postOff[T] != uint64(P) {
		return nil, fmt.Errorf("ir: posting offsets span [%d, %d), want [0, %d)", postOff[0], postOff[T], P)
	}
	ix := &Index{
		dict:    dict,
		termIdf: idf,
		postOff: postOff,
		post:    docPost,
		imp:     docImp,
		names:   names,
		doclen:  docLen,
		totalLn: int64(meta.TotalLen),
		frozen:  true,
	}
	n := D
	ix.scratch.New = func() any { return NewAccum(n, &ix.scratch) }
	return ix, nil
}
