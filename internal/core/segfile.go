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
// Each segment's payload is its Part's stream encoding (the format of
// tables.go), so a decoded segment is row for row the Part that was written and segfile-loaded query answers are byte-identical to
// the heap path.

import (
	"errors"
	"fmt"
	"io"
	"math"

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

// manifestHead and manifestEntry make up the manifest record: the head, then
// one entry per segment — its identity and ID bases, then its row counts in
// Stats order.
type manifestHead struct {
	Version, Segments uint32
	Gen               int64
}

type manifestEntry struct {
	SegmentMeta
	Rows [6]int64
}

// WriteSegfile persists a segmented library in segfile form: manifest
// block first, then each partition's stream encoding as its own block.
// The write streams through w in one forward pass (SaveIndex compatible).
func WriteSegfile(w io.Writer, parts []*Part, metas []SegmentMeta, gen int64) error {
	return writeSegfile(w, parts, metas, gen, tables[:])
}

// writeSegfile is WriteSegfile with each partition encoded under the given
// table declarations.
func writeSegfile(w io.Writer, parts []*Part, metas []SegmentMeta, gen int64, ts []tableCodec) error {
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
	ents := make([]manifestEntry, len(parts))
	for i, m := range metas {
		st := parts[i].Stats()
		ents[i] = manifestEntry{m, [6]int64{
			int64(st.Videos), int64(st.Segments), int64(st.Features),
			int64(st.Objects), int64(st.States), int64(st.Events),
		}}
	}
	head := manifestHead{coreLayoutVersion, uint32(len(parts)), gen}
	sw.Record(sfManifest, head, ents)
	for i, p := range parts {
		sw.Block(fmt.Sprintf(sfSegPattern, i), encodeTables(nil, p, ts))
	}
	return sw.Close()
}

// ErrNotSegfile reports a path that holds no segfile at all — an empty or
// cut-short file, a directory, or an index written in the retired
// pre-segfile stream format (segfile.ErrNotSegfile). Input that has the magic
// but is damaged further in fails with the container's own corruption errors.
var ErrNotSegfile = errors.New("not a segfile meta-index; re-index the corpus with cobraindex")

// OpenSegmentedFile memory-maps the segfile at path as a segmented view
// with lazy per-segment decode: the O(segments) cold start of the zero-copy
// persistence path. A path that exists but does not hold a segfile fails
// with ErrNotSegfile. The returned closer releases the mapping: every
// Part already decoded is heap-resident and survives it, but
// not-yet-hydrated segments become unreadable — close only when no reader
// can hydrate anymore (process-lifetime readers may never).
func OpenSegmentedFile(path string) (*SegmentedIndex, io.Closer, error) {
	s, c, err := segfile.OpenAs(path, openSegfileReader)
	if errors.Is(err, segfile.ErrNotSegfile) {
		err = fmt.Errorf("core: open meta-index %s: %w", path, ErrNotSegfile)
	}
	return s, c, err
}

func openSegfileReader(r *segfile.Reader) (*SegmentedIndex, error) {
	var head manifestHead
	var ents []manifestEntry
	if err := r.Record(sfManifest, &head, &ents); err != nil {
		return nil, err
	}
	if head.Version != coreLayoutVersion {
		return nil, fmt.Errorf("core: unsupported segfile layout version %d (want %d)", head.Version, coreLayoutVersion)
	}
	if head.Segments < 1 || head.Segments > maxSegfileSegments {
		return nil, fmt.Errorf("core: implausible segment count %d", head.Segments)
	}
	nsegs := int(head.Segments)
	if len(ents) != nsegs {
		return nil, fmt.Errorf("core: manifest holds %d entries, want %d", len(ents), nsegs)
	}
	if head.Gen < 0 {
		return nil, fmt.Errorf("core: negative generation %d", head.Gen)
	}
	s := &SegmentedIndex{
		parts: make(segset.Set[Part], nsegs),
		metas: make([]SegmentMeta, nsegs),
		rows:  make([]Stats, nsegs),
		gen:   head.Gen,
	}
	for i, e := range ents {
		if b := e.Base; min(e.ID, b.Video, b.Segment, b.Object, b.Event) < 0 {
			return nil, fmt.Errorf("core: manifest entry %d overflows int64", i)
		}
		n := e.Rows
		for _, v := range n {
			if v < 0 || v > math.MaxInt32 {
				return nil, fmt.Errorf("core: manifest entry %d: implausible row count %d", i, v)
			}
		}
		s.metas[i] = e.SegmentMeta
		s.rows[i] = Stats{int(n[0]), int(n[1]), int(n[2]), int(n[3]), int(n[4]), int(n[5])}
		name := fmt.Sprintf(sfSegPattern, i)
		if !r.Has(name) {
			return nil, fmt.Errorf("core: manifest lists segment %d but block is missing", i)
		}
		meta, want := s.metas[i], s.rows[i]
		s.parts[i] = segset.Lazy(func() (*Part, error) { return decodeSegment(r, name, meta, want) })
	}
	return s, nil
}

// decodeSegment decodes one segment's block on first touch and freezes it.
// The block is structural: its checksum is verified before the decode
// trusts it.
func decodeSegment(r *segfile.Reader, name string, meta SegmentMeta, want Stats) (*Part, error) {
	b, err := segfile.Structural[byte](r, name, -1)
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
	return m.Freeze(), nil
}
