package core

// Segfile persistence for the segmented meta-index: the same container
// format the IR kernel uses (internal/segfile), holding a checksummed
// manifest block — segment IDs, ID bases, generation, and per-segment row
// counts — plus one column-store block per segment. Opening parses and
// verifies ONLY the manifest: each segment's block is decoded on first
// touch (a sync.Once per slot), so cold start is O(segments), a process
// serving only scene-free queries never decodes video metadata at all, and
// under mmap the undecoded blocks are never even paged in.
//
// Each segment's payload is the column store's stream encoding
// (store.Serialize bytes, one database per block), so a decoded segment is
// row for row the MetaIndex that was written and segfile-loaded query
// answers are byte-identical to the heap path.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/segfile"
	"repro/internal/store"
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
// block first, then each partition's column-store bytes as its own block.
// The write streams through w in one forward pass (SaveIndex compatible).
func WriteSegfile(w io.Writer, parts []*MetaIndex, metas []SegmentMeta, gen int64) error {
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
		var buf bytes.Buffer
		if err := p.Serialize(&buf); err != nil {
			return fmt.Errorf("core: segment %d: %w", metas[i].ID, err)
		}
		if err := sw.Block(fmt.Sprintf(sfSegPattern, i), buf.Bytes()); err != nil {
			return err
		}
	}
	return sw.Close()
}

// lazySlot is one segment's decode-once cell. The pointer is atomic so
// cheap read paths (versionSum) can observe hydration without taking the
// once; err is only read after once.Do returns.
type lazySlot struct {
	once sync.Once
	m    atomic.Pointer[MetaIndex]
	err  error
}

// SegfileLibrary is an open segfile-backed segmented library: manifest
// parsed and verified, segments decoded lazily on first Part call. It is
// safe for concurrent use. Close releases the backing mapping; every
// MetaIndex already decoded is heap-resident and survives Close, but
// not-yet-hydrated segments become unreadable — close only when no reader
// can hydrate anymore.
type SegfileLibrary struct {
	r      *segfile.Reader
	closer io.Closer
	metas  []SegmentMeta
	stats  []Stats
	gen    int64
	slots  []lazySlot
}

// ErrNotSegfile reports input that does not begin with the segfile magic —
// an empty or cut-short file, a directory, or an index written in the
// retired pre-segfile stream format. (Input that has the magic but is
// damaged further in fails with the container's own corruption errors.)
var ErrNotSegfile = errors.New("not a segfile meta-index; re-index the corpus with cobraindex")

// OpenSegfileBytes opens a segfile-backed library over in-memory bytes.
// The library aliases data until every segment is hydrated.
func OpenSegfileBytes(data []byte) (*SegfileLibrary, error) {
	if !bytes.HasPrefix(data, []byte(segfile.Magic)) {
		return nil, fmt.Errorf("core: index stream (%d bytes): %w", len(data), ErrNotSegfile)
	}
	r, err := segfile.NewReader(data)
	if err != nil {
		return nil, err
	}
	return openSegfileReader(r, nil)
}

// OpenSegfileFile memory-maps the segfile at path: the O(segments) cold
// start of the zero-copy persistence path. The caller owns Close. A path
// that exists but does not hold a segfile fails with ErrNotSegfile.
func OpenSegfileFile(path string) (*SegfileLibrary, error) {
	if err := sniffSegfile(path); err != nil {
		return nil, err
	}
	f, err := segfile.Open(path)
	if err != nil {
		return nil, err
	}
	l, err := openSegfileReader(f.Reader, f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
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

func openSegfileReader(r *segfile.Reader, closer io.Closer) (*SegfileLibrary, error) {
	man, ok := r.Block(sfManifest)
	if !ok {
		return nil, fmt.Errorf("core: segfile has no %q block", sfManifest)
	}
	if err := r.VerifyBlock(sfManifest); err != nil {
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
	l := &SegfileLibrary{
		r:      r,
		closer: closer,
		metas:  make([]SegmentMeta, nsegs),
		stats:  make([]Stats, nsegs),
		gen:    int64(genU[0]),
		slots:  make([]lazySlot, nsegs),
	}
	if l.gen < 0 {
		return nil, fmt.Errorf("core: negative generation %d", l.gen)
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
		l.metas[i] = SegmentMeta{
			ID:   int64(e[0]),
			Base: IDBase{Video: int64(e[1]), Segment: int64(e[2]), Object: int64(e[3]), Event: int64(e[4])},
		}
		l.stats[i] = Stats{
			Videos: int(e[5]), Segments: int(e[6]), Features: int(e[7]),
			Objects: int(e[8]), States: int(e[9]), Events: int(e[10]),
		}
		if !l.r.Has(fmt.Sprintf(sfSegPattern, i)) {
			return nil, fmt.Errorf("core: manifest lists segment %d but block is missing", i)
		}
	}
	return l, nil
}

// NumSegments returns the segment count (manifest-only; no decode).
func (l *SegfileLibrary) NumSegments() int { return len(l.metas) }

// Generation returns the persisted segment-set generation.
func (l *SegfileLibrary) Generation() int64 { return l.gen }

// Metas returns a copy of the segment manifest.
func (l *SegfileLibrary) Metas() []SegmentMeta { return append([]SegmentMeta(nil), l.metas...) }

// PartStats returns segment i's persisted row counts without decoding it.
func (l *SegfileLibrary) PartStats(i int) Stats { return l.stats[i] }

// Stats sums the persisted row counts — the whole-library Stats answer,
// O(segments) and decode-free.
func (l *SegfileLibrary) Stats() Stats {
	var out Stats
	for _, st := range l.stats {
		out.Videos += st.Videos
		out.Segments += st.Segments
		out.Features += st.Features
		out.Objects += st.Objects
		out.States += st.States
		out.Events += st.Events
	}
	return out
}

// Hydrated reports whether segment i has been decoded.
func (l *SegfileLibrary) Hydrated(i int) bool { return l.slots[i].m.Load() != nil }

// Part returns segment i, decoding it on first use. The block's checksum
// is verified before decode (the lazy half of the checksum policy: bulk
// payloads are verified exactly when they are first trusted).
func (l *SegfileLibrary) Part(i int) (*MetaIndex, error) {
	if i < 0 || i >= len(l.slots) {
		return nil, fmt.Errorf("core: no segment ordinal %d (have %d)", i, len(l.slots))
	}
	s := &l.slots[i]
	s.once.Do(func() {
		name := fmt.Sprintf(sfSegPattern, i)
		if err := l.r.VerifyBlock(name); err != nil {
			s.err = err
			return
		}
		b, _ := l.r.Block(name)
		db, err := store.Deserialize(bytes.NewReader(b))
		if err != nil {
			s.err = fmt.Errorf("core: segment %d: %w", l.metas[i].ID, err)
			return
		}
		m, err := metaIndexFromDB(db)
		if err != nil {
			s.err = fmt.Errorf("core: segment %d: %w", l.metas[i].ID, err)
			return
		}
		// An empty partition's restored counters are zero; floor them at
		// the manifest base so later appends continue the global sequence.
		m.floorIDs(l.metas[i].Base)
		if got := m.Stats(); got != l.stats[i] {
			s.err = fmt.Errorf("core: segment %d: decoded stats %+v disagree with manifest %+v",
				l.metas[i].ID, got, l.stats[i])
			return
		}
		s.m.Store(m)
	})
	if s.err != nil {
		return nil, s.err
	}
	return s.m.Load(), nil
}

// Parts decodes every segment and returns them in order — the full
// hydration the write paths need before mutating.
func (l *SegfileLibrary) Parts() ([]*MetaIndex, error) {
	out := make([]*MetaIndex, len(l.slots))
	for i := range l.slots {
		m, err := l.Part(i)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// versionSum sums the versions of hydrated segments. Undecoded segments
// contribute 0 — exactly what their decoded version would be (deserialized
// indexes start at version 0), so the sum equals the eager path's and does
// not change when a segment merely hydrates.
func (l *SegfileLibrary) versionSum() int64 {
	var v int64
	for i := range l.slots {
		if m := l.slots[i].m.Load(); m != nil {
			v += m.Version()
		}
	}
	return v
}

// viewBuildsSum totals the frozen-view build counters of the hydrated
// segments; like versionSum it never triggers a decode.
func (l *SegfileLibrary) viewBuildsSum() int64 {
	var v int64
	for i := range l.slots {
		if m := l.slots[i].m.Load(); m != nil {
			v += m.ViewBuilds()
		}
	}
	return v
}

// View returns a lazy SegmentedIndex over the library: manifest-backed
// Stats/Version/Metas, per-segment decode on first touch.
func (l *SegfileLibrary) View() *SegmentedIndex {
	return &SegmentedIndex{
		metas: append([]SegmentMeta(nil), l.metas...),
		gen:   l.gen,
		src:   l,
	}
}

// Close releases the backing mapping (if any). See the type comment for
// the hydration caveat.
func (l *SegfileLibrary) Close() error {
	if l.closer == nil {
		return nil
	}
	return l.closer.Close()
}

// OpenSegmentedFile memory-maps the segfile at path as a read-only
// segmented view with lazy per-segment decode. The returned closer releases
// the mapping (process-lifetime readers may ignore it).
func OpenSegmentedFile(path string) (*SegmentedIndex, io.Closer, error) {
	lib, err := OpenSegfileFile(path)
	if err != nil {
		return nil, nil, err
	}
	return lib.View(), lib, nil
}
