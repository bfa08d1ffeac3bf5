package vec

// Zero-copy persistence for the vector lane. What persists is each
// segment's count matrix and scales — the embedder's integer pre-image of
// every document embedding: embeddings are pure functions of each
// document's text and never change, and composition (NewSegments) derives
// nothing else from them. Document names are not stored: the page lanes
// share one partition and one numbering, so the text lane names both lanes'
// hits, and a vec file is only ever valid beside that text file (Signature),
// composed under its partition (OpenFile).
//
// Block layout (names within the segfile container):
//
//	vec/meta           record: u32 vecVersion | u32 dim | u32 nsegs | u32 0 |
//	                   u64 signature
//	vec/emb            embedder name bytes
//	vec/<i>/meta       record: u32 docs | u8 code width (1, 2 or 4)
//	vec/<i>/codes      int8, int16 or int32 [D*dim] half-unit counts, at the
//	                   narrowest width holding the segment's largest |count|
//	                   (bulk: size-validated at open, served zero-copy)
//	vec/<i>/scale      f32[D] per-document scales (bulk)
//
// Coordinate j of document d is float32(codes[d*dim+j]) * scale[d], bit
// for bit the float32 embedding (see scaleOf). The scales are stored
// rather than derived at open, which would read every code page in.
//
// Open verifies the container structure and the checksums of every
// structural block (meta, emb, per-segment meta); the code matrices and
// scales are size-validated but never checksummed, preserving on-demand
// paging (a damaged code is a wrong score, not an out-of-range read).
// Every malformation — truncation, bit flips, a width or size that
// disagrees with its record, a segment of another length than its part of
// the partition — must surface as an error, never a panic (locked by
// FuzzVecSegfileOpen).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/fsx"
	"repro/internal/segfile"
	"repro/internal/segset"
)

// vecFormatVersion versions the vec block layout inside the container.
// Version 1 stored float32 embeddings and a name table per segment; it is
// refused, and a cache of it rebuilt.
const vecFormatVersion = 2

// maxSegments bounds the declared segment count of an opened file long
// before any per-segment allocation happens (hostile-input guard).
const maxSegments = 1 << 16

// fileMeta is the vec/meta record.
type fileMeta struct {
	Version, Dim, Segments, _ uint32
	Signature                 uint64
}

// ErrSignature reports that an opened vec segfile was written for a
// different corpus or embedder than the caller expected.
var ErrSignature = errors.New("vec: segment file signature mismatch")

// Signature derives a vec cache's signature from corpus, the signature of
// the text cache it sits beside (the pages and their partition), mixed
// with the embedder's name and the layout version.
func Signature(corpus uint64, e *HashEmbedder) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], corpus)
	h.Write(b[:])
	h.Write([]byte(e.Name()))
	binary.LittleEndian.PutUint32(b[:4], vecFormatVersion)
	h.Write(b[:4])
	if sig := h.Sum64(); sig != 0 {
		return sig
	}
	return 1 // 0 means "don't check" to Open; never emit it
}

// Write persists the builders to w in segfile form. signature is an
// opaque caller-chosen fingerprint stored in the file and checked by Open;
// pass 0 to opt out. Writing is deterministic: the same builders always
// produce the same bytes.
func Write(w io.Writer, e *HashEmbedder, parts []*Builder, signature uint64) error {
	if e == nil {
		return fmt.Errorf("vec: nil embedder")
	}
	if len(parts) == 0 || len(parts) > maxSegments {
		return fmt.Errorf("vec: cannot write %d segments", len(parts))
	}
	sw, err := segfile.NewWriter(w)
	if err != nil {
		return err
	}
	sw.Record("vec/meta", fileMeta{Version: vecFormatVersion, Dim: uint32(e.Dim()), Segments: uint32(len(parts)), Signature: signature})
	sw.Block("vec/emb", []byte(e.Name()))
	for i, b := range parts {
		if b == nil || b.Dim() != e.Dim() {
			return fmt.Errorf("vec: part %d does not match embedder dim %d", i, e.Dim())
		}
		prefix := fmt.Sprintf("vec/%d/", i)
		sw.Record(prefix+"meta", uint32(b.Len()), b.codes.width())
		sw.Block(prefix+"codes", b.codes.bytes())
		sw.Block(prefix+"scale", segfile.Bytes(b.scale))
	}
	return sw.Close()
}

// WriteFile durably replaces path with the serialized builders (temp
// file + fsync + rename via fsx.WriteAtomic).
func WriteFile(path string, e *HashEmbedder, parts []*Builder, signature uint64) error {
	return fsx.WriteAtomic(fsx.OS, path, func(w io.Writer) error {
		return Write(w, e, parts, signature)
	})
}

// openReader composes the segments of a parsed container, aliasing its
// bytes, under the partition pages (see NewSegments). e must
// match the embedder the file was written with; wantSignature, when
// non-zero, must match the stored signature (ErrSignature otherwise) — the
// staleness guard for cached embedding files.
func openReader(r *segfile.Reader, e *HashEmbedder, wantSignature uint64, pages segset.Bases) (*Segments, error) {
	if e == nil || e.Dim() <= 0 {
		return nil, fmt.Errorf("vec: nil or zero-dimension embedder")
	}
	var meta fileMeta
	if err := r.Record("vec/meta", &meta); err != nil {
		return nil, err
	}
	if meta.Version != vecFormatVersion {
		return nil, fmt.Errorf("vec: unsupported format version %d", meta.Version)
	}
	if meta.Segments == 0 || meta.Segments > maxSegments {
		return nil, fmt.Errorf("vec: implausible segment count %d", meta.Segments)
	}
	if meta.Dim != uint32(e.Dim()) {
		return nil, fmt.Errorf("%w: stored dim %d, embedder dim %d", ErrSignature, meta.Dim, e.Dim())
	}
	nsegs, sig := int(meta.Segments), meta.Signature
	emb, err := segfile.Structural[byte](r, "vec/emb", -1)
	if err != nil {
		return nil, err
	}
	if string(emb) != e.Name() {
		return nil, fmt.Errorf("%w: stored embedder %q, want %q", ErrSignature, emb, e.Name())
	}
	if wantSignature != 0 && sig != wantSignature {
		return nil, fmt.Errorf("%w: stored %#x, want %#x", ErrSignature, sig, wantSignature)
	}
	if pages.Parts() != nsegs {
		return nil, fmt.Errorf("vec: file holds %d segments, a partition of %d given", nsegs, pages.Parts())
	}
	parts := make([]*Builder, nsegs)
	for i := range parts {
		b, err := openSegment(r, i, e)
		if err != nil {
			return nil, err
		}
		parts[i] = b
	}
	return NewSegments(e, parts, pages)
}

func openSegment(r *segfile.Reader, i int, e *HashEmbedder) (*Builder, error) {
	prefix := fmt.Sprintf("vec/%d/", i)
	var docs uint32
	var width uint8
	if err := r.Record(prefix+"meta", &docs, &width); err != nil {
		return nil, err
	}
	if docs > uint32((1<<31-1)/e.Dim()) {
		return nil, fmt.Errorf("vec: segment %d: implausible doc count %d", i, docs)
	}
	// The matrix and scales are bulk: size-validated, served zero-copy,
	// never checksummed.
	n := int(docs) * e.Dim()
	var c codes
	var err error
	switch width {
	case 1:
		c.vals, err = segfile.Bulk[int8](r, prefix+"codes", n)
	case 2:
		c.vals, err = segfile.Bulk[int16](r, prefix+"codes", n)
	case 4:
		c.vals, err = segfile.Bulk[int32](r, prefix+"codes", n)
	default:
		return nil, fmt.Errorf("vec: segment %d: code width %d, not 1, 2 or 4", i, width)
	}
	if err != nil {
		return nil, err
	}
	scale, err := segfile.Bulk[float32](r, prefix+"scale", int(docs))
	if err != nil {
		return nil, err
	}
	return &Builder{emb: e, codes: c, scale: scale}, nil
}

// OpenFile maps the segfile at path and composes its segments under the
// partition pages (see NewSegments) — the cached-embeddings fast path
// of engine construction. The matrices alias the mapping: using the
// Segments after closing it is invalid. The caller owns the closer.
func OpenFile(path string, e *HashEmbedder, wantSignature uint64, pages segset.Bases) (*Segments, io.Closer, error) {
	return segfile.OpenAs(path, func(r *segfile.Reader) (*Segments, error) {
		return openReader(r, e, wantSignature, pages)
	})
}
