package core

// Segfile persistence for the segmented meta-index: the same container
// format the IR kernel uses (internal/segfile), holding a checksummed
// manifest block — segment IDs, ID bases, generation, and per-segment row
// counts — plus one table-stream block per segment. Opening parses and
// verifies ONLY the manifest: each segment's block is decoded on first
// touch (a segset.Cell per segment), so cold start is O(segments), a process
// serving only scene-free queries never decodes video metadata at all, and
// under mmap the undecoded blocks are never even paged in.
//
// Each segment's payload is its MetaIndex's stream encoding (the format of
// tables.go), so a decoded segment is row for row the MetaIndex
// that was written and segfile-loaded query answers are byte-identical to
// the heap path.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/segfile"
	"repro/internal/segset"
)

const (
	// coreLayoutVersion versions the core block layout inside the container.
	coreLayoutVersion = 1
	// sfManifest is the manifest block name; segment blocks are
	// "core/seg/<ordinal>".
	sfManifest   = "core/manifest"
	sfSegPattern = "core/seg/%d"
	// maxSegfileSegments bounds the manifest segment count against hostile
	// headers (decode preallocates O(segments) slot records).
	maxSegfileSegments = 1 << 16
)

// WriteSegfile persists a segmented library in segfile form: manifest
// block first, then each partition's stream encoding as its own block.
// The write streams through w in one forward pass (SaveIndex compatible).
func WriteSegfile(w io.Writer, parts []*MetaIndex, metas []SegmentMeta, gen int64) error {
	return writeSegfile(w, parts, metas, gen, tables[:])
}

// writeSegfile is WriteSegfile with each partition encoded under the given
// table declarations.
func writeSegfile(w io.Writer, parts []*MetaIndex, metas []SegmentMeta, gen int64, ts []tableCodec) error {
	if len(parts) == 0 {
		return fmt.Errorf("core: segfile needs at least one partition")
	}
	if len(parts) != len(metas) {
		return fmt.Errorf("core: %d parts but %d manifest entries", len(parts), len(metas))
	}
	sw, err := segfile.NewWriter(w)
	if err != nil {
		return err
	}
	man := make([]byte, 0, 8+len(parts)*11*8)
	man = segfile.AppendUint32s(man, []uint32{coreLayoutVersion, uint32(len(parts))})
	man = segfile.AppendUint64s(man, []uint64{uint64(gen)})
	for i, m := range metas {
		st := parts[i].Stats()
		man = segfile.AppendUint64s(man, []uint64{
			uint64(m.ID),
			uint64(m.Base.Video), uint64(m.Base.Segment),
			uint64(m.Base.Object), uint64(m.Base.Event),
			uint64(st.Videos), uint64(st.Segments), uint64(st.Features),
			uint64(st.Objects), uint64(st.States), uint64(st.Events),
		})
	}
	if err := sw.Block(sfManifest, man); err != nil {
		return err
	}
	for i, p := range parts {
		if err := sw.Block(fmt.Sprintf(sfSegPattern, i), encodeTables(nil, p, ts)); err != nil {
			return err
		}
	}
	return sw.Close()
}

// ErrNotSegfile reports input that does not begin with the segfile magic —
// an empty or cut-short file, a directory, or an index written in the
// retired pre-segfile stream format. (Input that has the magic but is
// damaged further in fails with the container's own corruption errors.)
var ErrNotSegfile = errors.New("not a segfile meta-index; re-index the corpus with cobraindex")

// OpenSegmentedFile memory-maps the segfile at path as a segmented view
// with lazy per-segment decode: the O(segments) cold start of the zero-copy
// persistence path. A path that exists but does not hold a segfile fails
// with ErrNotSegfile. The returned closer releases the mapping: every
// MetaIndex already decoded is heap-resident and survives it, but
// not-yet-hydrated segments become unreadable — close only when no reader
// can hydrate anymore (process-lifetime readers may never).
func OpenSegmentedFile(path string) (*SegmentedIndex, io.Closer, error) {
	if err := sniffSegfile(path); err != nil {
		return nil, nil, err
	}
	return segfile.OpenAs(path, openSegfileReader)
}

// sniffSegfile checks that path starts with the segfile magic, so that
// anything else is refused with one error naming the path and the remedy
// instead of whatever the mapping or the container parser trips over first.
func sniffSegfile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("core: open meta-index: %w", err)
	}
	defer f.Close()
	magic := make([]byte, len(segfile.Magic))
	if _, err := io.ReadFull(f, magic); err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		// Not a short file but an unreadable one, e.g. a directory.
		return fmt.Errorf("core: open meta-index %s: %w (%v)", path, ErrNotSegfile, err)
	}
	if string(magic) != segfile.Magic {
		return fmt.Errorf("core: open meta-index %s: %w", path, ErrNotSegfile)
	}
	return nil
}

func openSegfileReader(r *segfile.Reader) (*SegmentedIndex, error) {
	man, err := r.Structural(sfManifest, -1)
	if err != nil {
		return nil, err
	}
	if len(man) < 16 {
		return nil, fmt.Errorf("core: manifest block too short (%d bytes)", len(man))
	}
	u32, _ := segfile.Uint32s(man[0:8])
	if u32[0] != coreLayoutVersion {
		return nil, fmt.Errorf("core: unsupported segfile layout version %d (want %d)", u32[0], coreLayoutVersion)
	}
	nsegs := int(u32[1])
	if nsegs < 1 || nsegs > maxSegfileSegments {
		return nil, fmt.Errorf("core: implausible segment count %d", nsegs)
	}
	if len(man) != 16+nsegs*11*8 {
		return nil, fmt.Errorf("core: manifest block is %d bytes, want %d for %d segments",
			len(man), 16+nsegs*11*8, nsegs)
	}
	genU, _ := segfile.Uint64s(man[8:16])
	s := &SegmentedIndex{
		parts: make(segset.Set[MetaIndex], nsegs),
		metas: make([]SegmentMeta, nsegs),
		rows:  make([]Stats, nsegs),
		gen:   int64(genU[0]),
	}
	if s.gen < 0 {
		return nil, fmt.Errorf("core: negative generation %d", s.gen)
	}
	rows, err := segfile.Uint64s(man[16:])
	if err != nil {
		return nil, err
	}
	for i := 0; i < nsegs; i++ {
		e := rows[i*11 : (i+1)*11]
		for _, v := range e {
			if v > math.MaxInt64 {
				return nil, fmt.Errorf("core: manifest entry %d overflows int64", i)
			}
		}
		for _, v := range e[5:] {
			if v > math.MaxInt32 {
				return nil, fmt.Errorf("core: manifest entry %d: implausible row count %d", i, v)
			}
		}
		s.metas[i] = SegmentMeta{
			ID:   int64(e[0]),
			Base: IDBase{Video: int64(e[1]), Segment: int64(e[2]), Object: int64(e[3]), Event: int64(e[4])},
		}
		s.rows[i] = Stats{
			Videos: int(e[5]), Segments: int(e[6]), Features: int(e[7]),
			Objects: int(e[8]), States: int(e[9]), Events: int(e[10]),
		}
		name := fmt.Sprintf(sfSegPattern, i)
		if !r.Has(name) {
			return nil, fmt.Errorf("core: manifest lists segment %d but block is missing", i)
		}
		meta, want := s.metas[i], s.rows[i]
		s.parts[i] = segset.Lazy(func() (*MetaIndex, error) { return decodeSegment(r, name, meta, want) })
	}
	return s, nil
}

// decodeSegment decodes one segment's block on first touch. The block's
// checksum is verified before decode (the lazy half of the checksum policy:
// bulk payloads are verified exactly when they are first trusted).
func decodeSegment(r *segfile.Reader, name string, meta SegmentMeta, want Stats) (*MetaIndex, error) {
	b, err := r.Structural(name, -1)
	if err != nil {
		return nil, err
	}
	m, err := DeserializeMetaIndex(b)
	if err != nil {
		return nil, fmt.Errorf("core: segment %d: %w", meta.ID, err)
	}
	// An empty partition's restored counters are zero; floor them at the
	// manifest base so later appends continue the global sequence.
	m.floorIDs(meta.Base)
	if got := m.Stats(); got != want {
		return nil, fmt.Errorf("core: segment %d: decoded stats %+v disagree with manifest %+v", meta.ID, got, want)
	}
	return m, nil
}
