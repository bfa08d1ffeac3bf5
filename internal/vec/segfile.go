package vec

// Zero-copy persistence for the vector lane. What persists is the raw
// per-segment embedding matrices plus document names: embeddings are pure
// functions of each document's text and never change, and composition
// (NewSegments) derives nothing else from them.
//
// Block layout (names within the segfile container):
//
//	vec/meta           record: u32 vecVersion | u32 dim | u32 nsegs | u32 0 |
//	                   u64 signature
//	vec/emb            embedder name bytes
//	vec/<i>/meta       record: u32 docs
//	vec/<i>/names      doc name bytes, concatenated
//	vec/<i>/nameoff    u32[D+1] offsets into names
//	vec/<i>/vecs       f32[D*dim] embeddings (bulk: size-validated at
//	                   open, served as a zero-copy float32 view)
//
// Open verifies the container structure and the checksums of every
// structural block (meta, emb, per-segment meta and name tables); the
// embedding matrices are size-validated but never checksummed, preserving
// on-demand paging (a damaged float is a wrong score, not an out-of-range
// read).
// Every malformation — truncation, bit flips, hostile offsets — must
// surface as an error, never a panic (locked by FuzzVecSegfileOpen).

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/fsx"
	"repro/internal/segfile"
)

// vecFormatVersion versions the vec block layout inside the container.
const vecFormatVersion = 1

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

// Write persists the builders to w in segfile form. signature is an
// opaque caller-chosen corpus fingerprint stored in the file and checked
// by Open; pass 0 to opt out. Writing is deterministic: the same
// builders always produce the same bytes.
func Write(w io.Writer, e Embedder, parts []*Builder, signature uint64) error {
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
		sw.Record(prefix+"meta", uint32(b.Len()))
		sw.Table(prefix+"names", prefix+"nameoff", b.names)
		sw.Block(prefix+"vecs", segfile.Bytes(b.vecs))
	}
	return sw.Close()
}

// WriteFile durably replaces path with the serialized builders (temp
// file + fsync + rename via fsx.WriteAtomic).
func WriteFile(path string, e Embedder, parts []*Builder, signature uint64) error {
	return fsx.WriteAtomic(fsx.OS, path, func(w io.Writer) error {
		return Write(w, e, parts, signature)
	})
}

// openReader reconstructs builders from a parsed container; they alias its
// bytes. e must match the embedder the file was written with;
// wantSignature, when non-zero, must match the stored signature
// (ErrSignature otherwise) — the staleness guard for cached embedding files.
func openReader(r *segfile.Reader, e Embedder, wantSignature uint64) ([]*Builder, error) {
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
	dim, nsegs, sig := e.Dim(), int(meta.Segments), meta.Signature
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
	parts := make([]*Builder, nsegs)
	for i := range parts {
		b, err := openSegment(r, i, dim)
		if err != nil {
			return nil, err
		}
		parts[i] = b
	}
	return parts, nil
}

func openSegment(r *segfile.Reader, i, dim int) (*Builder, error) {
	prefix := fmt.Sprintf("vec/%d/", i)
	var docs uint32
	if err := r.Record(prefix+"meta", &docs); err != nil {
		return nil, err
	}
	if docs > uint32((1<<31-1)/dim) {
		return nil, fmt.Errorf("vec: segment %d: implausible doc count %d", i, docs)
	}
	names, err := r.Table(prefix+"names", prefix+"nameoff", int(docs))
	if err != nil {
		return nil, err
	}
	// The embedding matrix is bulk: size-validated, served zero-copy, never
	// checksummed.
	vecs, err := segfile.Bulk[float32](r, prefix+"vecs", int(docs)*dim)
	if err != nil {
		return nil, err
	}
	return &Builder{dim: dim, names: names, vecs: vecs}, nil
}

// OpenFile maps the segfile at path and reconstructs the builders over
// it — the cached-embeddings fast path of engine construction. Names and
// embedding matrices alias the mapping: using the builders (or any
// Segments composed from them) after closing it is invalid. The caller
// owns the closer.
func OpenFile(path string, e Embedder, wantSignature uint64) ([]*Builder, io.Closer, error) {
	return segfile.OpenAs(path, func(r *segfile.Reader) ([]*Builder, error) {
		return openReader(r, e, wantSignature)
	})
}
