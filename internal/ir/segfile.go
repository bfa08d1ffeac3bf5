package ir

// Zero-copy segment persistence for the text-retrieval kernel. A frozen
// Segments reader serializes into the segfile container as flat,
// 64-byte-aligned arrays — postings (docOrder and impactOrder), the PR 3
// float32 BM25 impact vectors, per-term idf, doc-length norms, and the
// sorted term dictionary — and opens back up with one mmap plus an
// O(terms) dictionary scan: every slice of the reconstructed Index aliases
// the mapped bytes directly (postings via an unsafe struct view, impacts
// via segfile's float32 view), so no posting is decoded, nothing bulk is
// copied to the heap, and the kernel's accumulator loop in scoreTerms
// scores straight over the file's pages.
//
// Byte-identity: segments persist exactly the arrays Freeze built —
// impact float32 bits, impactOrder permutation, idf float64 bits, and doc
// order — so a search over an opened file accumulates the same float32
// values in the same order as the heap-built index and returns
// byte-identical hits, scores, stats, and tie-breaks (locked by
// segfile_test.go across 1/2/4-way splits).
//
// Block layout (names within the container):
//
//	ir/meta            u32 irVersion | u32 nsegs | u64 docs | u64 vocab |
//	                   u64 signature
//	ir/<i>/meta        u32 docs | u64 totalLen | u32 terms | u64 postings
//	ir/<i>/terms       sorted term bytes, concatenated
//	ir/<i>/termoff     u32[T+1] offsets into terms
//	ir/<i>/idf         f64[T]
//	ir/<i>/postoff     u64[T+1] posting offsets per term
//	ir/<i>/docpost     Posting[P] in docOrder      (bulk, lazily paged)
//	ir/<i>/docimp      f32[P] impacts of docpost   (bulk, lazily paged)
//	ir/<i>/imppost     Posting[P] in impactOrder   (bulk, lazily paged)
//	ir/<i>/impimp      f32[P] impacts of imppost   (bulk, lazily paged)
//	ir/<i>/names       doc name bytes, concatenated
//	ir/<i>/nameoff     u32[D+1] offsets into names
//	ir/<i>/doclen      i32[D] analyzed token counts
//
// Open verifies the container structure plus the checksums of every
// structural block (meta, dictionaries, offset tables, names, doclen); the
// four bulk posting/impact blocks are size- and bounds-validated but not
// checksummed at open, preserving on-demand paging (VerifyAll covers them).

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"unsafe"

	"repro/internal/segfile"
	"repro/internal/segset"
)

// irFormatVersion versions the ir block layout inside the container
// (independent of the container version).
const irFormatVersion = 1

// Compile-time locks on the Posting memory layout the zero-copy view
// depends on: 8 bytes total, Doc at offset 0, TF at offset 4. If the
// struct ever changes, these fail to build and postingSize/postingsView
// must be revisited together with irFormatVersion.
const postingSize = int(unsafe.Sizeof(Posting{}))

var (
	_ [1]struct{} = [unsafe.Sizeof(Posting{}) - 7]struct{}{}
	_ [1]struct{} = [9 - unsafe.Sizeof(Posting{})]struct{}{}
	_ [1]struct{} = [unsafe.Offsetof(Posting{}.TF) - 3]struct{}{}
	_ [1]struct{} = [5 - unsafe.Offsetof(Posting{}.TF)]struct{}{}
)

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
	meta := make([]byte, 0, 32)
	meta = segfile.AppendUint32s(meta, []uint32{irFormatVersion, uint32(len(s.segs))})
	meta = segfile.AppendUint64s(meta, []uint64{uint64(s.Docs()), uint64(s.vocb), signature})
	if err := sw.Block("ir/meta", meta); err != nil {
		return err
	}
	for i, ix := range s.segs {
		if !ix.frozen {
			return fmt.Errorf("ir: segment %d is not frozen", i)
		}
		if err := writeIndexBlocks(sw, fmt.Sprintf("ir/%d/", i), ix); err != nil {
			return fmt.Errorf("ir: segment %d: %w", i, err)
		}
	}
	return sw.Close()
}

func writeIndexBlocks(sw *segfile.Writer, prefix string, ix *Index) error {
	terms := make([]string, 0, len(ix.terms))
	for t := range ix.terms {
		terms = append(terms, t)
	}
	sort.Strings(terms)

	var postings uint64
	for _, t := range terms {
		postings += uint64(len(ix.terms[t].docOrder))
	}
	meta := make([]byte, 0, 24)
	meta = segfile.AppendUint32s(meta, []uint32{uint32(len(ix.docs))})
	meta = segfile.AppendUint64s(meta, []uint64{uint64(ix.totalLn)})
	meta = segfile.AppendUint32s(meta, []uint32{uint32(len(terms))})
	meta = segfile.AppendUint64s(meta, []uint64{postings})
	if err := sw.Block(prefix+"meta", meta); err != nil {
		return err
	}

	if err := sw.Strings(prefix+"terms", prefix+"termoff", len(terms), func(i int) string { return terms[i] }); err != nil {
		return err
	}
	idf := make([]byte, 0, 8*len(terms))
	postOff := make([]byte, 0, 8*(len(terms)+1))
	docPost := make([]byte, 0, int(postings)*postingSize)
	docImp := make([]byte, 0, int(postings)*4)
	impPost := make([]byte, 0, int(postings)*postingSize)
	impImp := make([]byte, 0, int(postings)*4)
	var cum uint64
	for _, t := range terms {
		pl := ix.terms[t]
		idf = segfile.AppendFloat64s(idf, []float64{pl.idf})
		postOff = segfile.AppendUint64s(postOff, []uint64{cum})
		cum += uint64(len(pl.docOrder))
		docPost = appendPostings(docPost, pl.docOrder)
		docImp = segfile.AppendFloat32s(docImp, pl.docImp)
		impPost = appendPostings(impPost, pl.impactOrder)
		impImp = segfile.AppendFloat32s(impImp, pl.impImp)
	}
	postOff = segfile.AppendUint64s(postOff, []uint64{cum})
	for _, blk := range []struct {
		name string
		data []byte
	}{
		{"idf", idf}, {"postoff", postOff}, {"docpost", docPost},
		{"docimp", docImp}, {"imppost", impPost}, {"impimp", impImp},
	} {
		if err := sw.Block(prefix+blk.name, blk.data); err != nil {
			return err
		}
	}
	if err := sw.Strings(prefix+"names", prefix+"nameoff", len(ix.docs), func(i int) string { return ix.docs[i].Name }); err != nil {
		return err
	}
	docLen := make([]byte, 0, 4*len(ix.docs))
	for _, d := range ix.docs {
		docLen = segfile.AppendInt32s(docLen, []int32{d.Len})
	}
	return sw.Block(prefix+"doclen", docLen)
}

// appendPostings encodes postings little-endian (Doc u32 | TF u32), the
// byte image the zero-copy view aliases on read.
func appendPostings(dst []byte, ps []Posting) []byte {
	for _, p := range ps {
		dst = segfile.AppendUint32s(dst, []uint32{uint32(p.Doc), uint32(p.TF)})
	}
	return dst
}

// postingsView views b as []Posting without decoding. The aligned path
// aliases the bytes (the compile-time layout locks above make this exactly
// the appendPostings image on little-endian hosts, which is the only kind
// segfile.NewReader admits); a misaligned base falls back to decoding.
func postingsView(b []byte) ([]Posting, error) {
	if len(b)%postingSize != 0 {
		return nil, fmt.Errorf("ir: posting block of %d bytes (not a multiple of %d)", len(b), postingSize)
	}
	n := len(b) / postingSize
	if n == 0 {
		return nil, nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(Posting{}) == 0 {
		return unsafe.Slice((*Posting)(unsafe.Pointer(&b[0])), n), nil
	}
	u, err := segfile.Uint32s(b)
	if err != nil {
		return nil, err
	}
	out := make([]Posting, n)
	for i := range out {
		out[i] = Posting{Doc: DocID(u[2*i]), TF: int32(u[2*i+1])}
	}
	return out, nil
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
	meta, err := r.Structural("ir/meta", 32)
	if err != nil {
		return nil, err
	}
	u32, _ := segfile.Uint32s(meta[0:8])
	u64, _ := segfile.Uint64s(meta[8:32])
	if u32[0] != irFormatVersion {
		return nil, fmt.Errorf("ir: unsupported segment layout version %d (want %d)", u32[0], irFormatVersion)
	}
	nsegs := int(u32[1])
	totalDocs, vocab, sig := u64[0], u64[1], u64[2]
	if wantSignature != 0 && sig != wantSignature {
		return nil, fmt.Errorf("%w: file %#x, want %#x", ErrSignature, sig, wantSignature)
	}
	if nsegs < 1 || nsegs > maxSegments {
		return nil, fmt.Errorf("ir: implausible segment count %d", nsegs)
	}
	if totalDocs > math.MaxInt32 || vocab > math.MaxUint32 {
		return nil, fmt.Errorf("ir: implausible totals (docs=%d, vocab=%d)", totalDocs, vocab)
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
	if uint64(docs) != totalDocs {
		return nil, fmt.Errorf("ir: segments hold %d docs, header claims %d", docs, totalDocs)
	}
	return &Segments{segs: segs, bases: segset.NewBases(sizes), vocb: int(vocab)}, nil
}

// maxSegments bounds the per-file segment count against hostile headers.
const maxSegments = 1 << 16

func openIndexBlocks(r *segfile.Reader, prefix string) (*Index, error) {
	meta, err := r.Structural(prefix+"meta", 24)
	if err != nil {
		return nil, err
	}
	mu32, _ := segfile.Uint32s(meta[0:4])
	mu64a, _ := segfile.Uint64s(meta[4:12])
	mu32b, _ := segfile.Uint32s(meta[12:16])
	mu64b, _ := segfile.Uint64s(meta[16:24])
	docCount, totalLn, termCount, postings := mu32[0], mu64a[0], mu32b[0], mu64b[0]
	if docCount > math.MaxInt32 || totalLn > math.MaxInt64 {
		return nil, fmt.Errorf("ir: implausible doc stats (docs=%d, totalLen=%d)", docCount, totalLn)
	}
	D, T := int(docCount), int(termCount)
	if postings > uint64(math.MaxInt)/uint64(postingSize) {
		return nil, fmt.Errorf("ir: implausible posting count %d", postings)
	}
	P := int(postings)

	terms, err := r.Strings(prefix+"terms", prefix+"termoff", T)
	if err != nil {
		return nil, err
	}
	idfB, err := r.Structural(prefix+"idf", 8*T)
	if err != nil {
		return nil, err
	}
	postOffB, err := r.Structural(prefix+"postoff", 8*(T+1))
	if err != nil {
		return nil, err
	}
	names, err := r.Strings(prefix+"names", prefix+"nameoff", D)
	if err != nil {
		return nil, err
	}
	docLenB, err := r.Structural(prefix+"doclen", 4*D)
	if err != nil {
		return nil, err
	}
	docPostB, err := r.Bulk(prefix+"docpost", P*postingSize)
	if err != nil {
		return nil, err
	}
	docImpB, err := r.Bulk(prefix+"docimp", 4*P)
	if err != nil {
		return nil, err
	}
	impPostB, err := r.Bulk(prefix+"imppost", P*postingSize)
	if err != nil {
		return nil, err
	}
	impImpB, err := r.Bulk(prefix+"impimp", 4*P)
	if err != nil {
		return nil, err
	}

	postOff, err := segfile.Uint64s(postOffB)
	if err != nil {
		return nil, err
	}
	idf, err := segfile.Float64s(idfB)
	if err != nil {
		return nil, err
	}
	docLen, err := segfile.Int32s(docLenB)
	if err != nil {
		return nil, err
	}
	docPost, err := postingsView(docPostB)
	if err != nil {
		return nil, err
	}
	docImp, err := segfile.Float32s(docImpB)
	if err != nil {
		return nil, err
	}
	impPost, err := postingsView(impPostB)
	if err != nil {
		return nil, err
	}
	impImp, err := segfile.Float32s(impImpB)
	if err != nil {
		return nil, err
	}

	ix := &Index{
		terms:   make(map[string]*postingList, T),
		docs:    make([]docInfo, D),
		totalLn: int64(totalLn),
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
		pl.impactOrder = impPost[plo:phi]
		pl.impImp = impImp[plo:phi]
		pl.idf = idf[t]
		ix.terms[term] = pl
	}
	if T > 0 && postOff[0] != 0 {
		return nil, fmt.Errorf("ir: posting offsets start at %d, want 0", postOff[0])
	}
	if T > 0 && postOff[T] != uint64(P) {
		return nil, fmt.Errorf("ir: posting offsets end at %d, want %d", postOff[T], P)
	}
	if T == 0 && P != 0 {
		return nil, fmt.Errorf("ir: %d postings but no terms", P)
	}
	for d, name := range names {
		ix.docs[d] = docInfo{Name: name, Len: docLen[d]}
	}
	n := D
	ix.scratch.New = func() any { return NewAccum(n, &ix.scratch) }
	return ix, nil
}
