package vec

// Zero-copy persistence for the vector lane. What persists is the raw
// per-segment embedding matrices plus document names: embeddings are pure
// functions of each document's text and never change, and composition
// (NewSegments) derives nothing else from them.
//
// Block layout (names within the segfile container):
//
//	vec/meta           u32 vecVersion | u32 dim | u32 nsegs | u32 0 |
//	                   u64 signature
//	vec/emb            embedder name bytes
//	vec/<i>/meta       u32 docs
//	vec/<i>/names      doc name bytes, concatenated
//	vec/<i>/nameoff    u32[D+1] offsets into names
//	vec/<i>/vecs       f32[D*dim] embeddings (bulk: size-validated at
//	                   open, served as a zero-copy float32 view)
//
// Open verifies the container structure and the checksums of every
// structural block (meta, emb, per-segment meta and name tables); the
// embedding matrices are bounds-validated but not checksummed at open,
// preserving on-demand paging (segfile.Reader.VerifyAll covers them).
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
	meta := make([]byte, 0, 24)
	meta = segfile.AppendUint32s(meta, []uint32{vecFormatVersion, uint32(e.Dim()), uint32(len(parts)), 0})
	meta = segfile.AppendUint64s(meta, []uint64{signature})
	if err := sw.Block("vec/meta", meta); err != nil {
		return err
	}
	if err := sw.Block("vec/emb", []byte(e.Name())); err != nil {
		return err
	}
	for i, b := range parts {
		if b == nil || b.Dim() != e.Dim() {
			return fmt.Errorf("vec: part %d does not match embedder dim %d", i, e.Dim())
		}
		prefix := fmt.Sprintf("vec/%d/", i)
		if err := sw.Block(prefix+"meta", segfile.AppendUint32s(nil, []uint32{uint32(b.Len())})); err != nil {
			return err
		}
		if err := sw.Strings(prefix+"names", prefix+"nameoff", b.Len(), b.Name); err != nil {
			return err
		}
		if err := sw.Block(prefix+"vecs", segfile.AppendFloat32s(nil, b.vecs)); err != nil {
			return err
		}
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
	meta, err := r.Structural("vec/meta", 24)
	if err != nil {
		return nil, err
	}
	u32, _ := segfile.Uint32s(meta[:16])
	u64, _ := segfile.Uint64s(meta[16:24])
	version, dim, nsegs, sig := u32[0], int(u32[1]), int(u32[2]), u64[0]
	if version != vecFormatVersion {
		return nil, fmt.Errorf("vec: unsupported format version %d", version)
	}
	if nsegs <= 0 || nsegs > maxSegments {
		return nil, fmt.Errorf("vec: implausible segment count %d", nsegs)
	}
	if dim != e.Dim() {
		return nil, fmt.Errorf("%w: stored dim %d, embedder dim %d", ErrSignature, dim, e.Dim())
	}
	emb, err := r.Structural("vec/emb", -1)
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
	meta, err := r.Structural(prefix+"meta", 4)
	if err != nil {
		return nil, err
	}
	u32, _ := segfile.Uint32s(meta)
	docs := int(u32[0])
	if docs < 0 || docs > (1<<31-1)/dim {
		return nil, fmt.Errorf("vec: segment %d: implausible doc count %d", i, docs)
	}
	names, err := r.Strings(prefix+"names", prefix+"nameoff", docs)
	if err != nil {
		return nil, err
	}
	// The embedding matrix is bulk: size-validated, served zero-copy,
	// checksummed only by VerifyAll.
	vecBytes, err := r.Bulk(prefix+"vecs", docs*dim*4)
	if err != nil {
		return nil, err
	}
	vecs, err := segfile.Float32s(vecBytes)
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
