package core

// Segmented meta-index: an ordered set of Parts read as one logical COBRA
// meta-index. Every entity ID space (video, segment, object, event) is
// partitioned contiguously in segment order — segment i's counters start
// where segment i-1's ended — so concatenating per-segment answers in
// segment order reproduces, row for row, the answer a single monolithic
// index built from the same videos in the same order would give. A manifest records the partitioning (segment IDs, ID bases,
// generation) and is persisted alongside the parts (see segfile.go).

import (
	"fmt"

	"repro/internal/segset"
)

// IDBase is the state of the meta-index ID counters at a segment boundary:
// the last video, segment, object, and event IDs assigned before the
// segment begins. A segment created at base b owns IDs (b, next-base].
type IDBase struct {
	Video, Segment, Object, Event int64
}

// SegmentMeta is one manifest entry: a partition's identity and ID range.
type SegmentMeta struct {
	// ID identifies the segment; monotonically assigned, stable across
	// saves. Compaction keeps the first merged segment's ID.
	ID int64
	// Base is the ID-counter state at the segment's start.
	Base IDBase
}

// SegmentedIndex is an immutable reader over an ordered set of Parts.
// Whole-library reads gather the per-partition answers in segment order —
// the append order of the monolithic build. Each partition resolves at most
// once: a Part handed to NewSegmentedIndex is resolved from the start, one
// opened from a segfile decodes when a read first touches it. What the
// manifest records (NumSegments, Metas, Generation, and the row counts of
// partitions not yet decoded) answers without decoding anything. The value
// itself is a snapshot: a Part has no write method, and every change to the
// set builds a new SegmentedIndex, so readers holding an old one are never
// disturbed.
type SegmentedIndex struct {
	parts segset.Set[Part]
	metas []SegmentMeta
	// rows holds the persisted row counts of segfile-backed partitions —
	// what PartStats answers until the partition is decoded.
	rows []Stats
	gen  int64
}

// NewSegmentedIndex builds a reader over the given parts. parts and metas
// must be the same length and in segment order; the slices are copied.
func NewSegmentedIndex(parts []*Part, metas []SegmentMeta, gen int64) (*SegmentedIndex, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: segmented index needs at least one partition")
	}
	if len(parts) != len(metas) {
		return nil, fmt.Errorf("core: %d parts but %d manifest entries", len(parts), len(metas))
	}
	s := &SegmentedIndex{
		parts: make(segset.Set[Part], len(parts)),
		metas: append([]SegmentMeta(nil), metas...),
		gen:   gen,
	}
	for i, p := range parts {
		s.parts[i] = segset.Ready(p)
	}
	return s, nil
}

// SingleSegment wraps one Part as a one-partition segmented view — the
// bridge from the monolithic API surface.
func SingleSegment(p *Part) *SegmentedIndex {
	return &SegmentedIndex{parts: segset.Set[Part]{segset.Ready(p)}, metas: []SegmentMeta{{ID: 1}}}
}

// NumSegments returns the partition count.
func (s *SegmentedIndex) NumSegments() int { return len(s.parts) }

// Parts resolves every partition and returns them in order — the full
// hydration the write paths need before building a new set.
func (s *SegmentedIndex) Parts() ([]*Part, error) {
	return segset.Gather(s.parts, func(p *Part) ([]*Part, error) { return []*Part{p}, nil })
}

// Hydrated reports whether partition i is resolved (always, unless it is
// segfile-backed and no read has touched it).
func (s *SegmentedIndex) Hydrated(i int) bool { return s.parts[i].Peek() != nil }

// Metas returns a copy of the full segment manifest in partition order —
// the placement input of the distributed tier.
func (s *SegmentedIndex) Metas() []SegmentMeta {
	return append([]SegmentMeta(nil), s.metas...)
}

// PartScenes returns partition ord's scenes of the given event kind — the
// partial-read primitive of the distributed tier. Concatenating PartScenes
// answers in ordinal order reproduces Scenes exactly, so a gather over nodes
// serving disjoint ordinal sets is byte-identical to the local read.
func (s *SegmentedIndex) PartScenes(ord int, kind string) ([]Scene, error) {
	p, err := s.parts.Part(ord)
	if err != nil {
		return nil, err
	}
	return p.Scenes(kind)
}

// PartStats returns partition ord's row counts: live ones from a resolved
// partition, the persisted manifest's otherwise — never a decode.
func (s *SegmentedIndex) PartStats(ord int) (Stats, error) {
	if err := segset.Check(len(s.parts), ord); err != nil {
		return Stats{}, err
	}
	if p := s.parts[ord].Peek(); p != nil {
		return p.Stats(), nil
	}
	return s.rows[ord], nil
}

// Generation returns the segment-set generation, the persisted one that
// manifests, the router and the WAL compare: it increases every time the
// set of segments changes (commit, compaction, reload). A batch that grows
// the newest segment keeps it.
func (s *SegmentedIndex) Generation() int64 { return s.gen }

// Stats sums row counts across partitions (see PartStats: no decode).
func (s *SegmentedIndex) Stats() Stats {
	var out Stats
	for i := range s.parts {
		st, _ := s.PartStats(i)
		out.Videos += st.Videos
		out.Segments += st.Segments
		out.Features += st.Features
		out.Objects += st.Objects
		out.States += st.States
		out.Events += st.Events
	}
	return out
}

// ViewsBuilt counts the resolved partitions whose scene view is built —
// explain's signal that a scene read of this snapshot built one. An
// undecoded partition has built none.
func (s *SegmentedIndex) ViewsBuilt() int64 {
	var n int64
	for _, c := range s.parts {
		if p := c.Peek(); p != nil && p.view.Load() != nil {
			n++
		}
	}
	return n
}

// partOf returns the partition owning the given video ID (the last
// partition whose video base is below it); a video's shots, objects and
// events all live in the partition its row does.
func (s *SegmentedIndex) partOf(videoID int64) (*Part, error) {
	i := len(s.metas) - 1
	for i > 0 && s.metas[i].Base.Video >= videoID {
		i--
	}
	return s.parts.Part(i)
}

// SegmentsOf returns all shots of a video in index order.
func (s *SegmentedIndex) SegmentsOf(videoID int64) ([]Segment, error) {
	p, err := s.partOf(videoID)
	if err != nil {
		return nil, err
	}
	return p.SegmentsOf(videoID)
}

// Scenes returns playable scenes for all events of the given kind.
func (s *SegmentedIndex) Scenes(kind string) ([]Scene, error) {
	return segset.Gather(s.parts, func(p *Part) ([]Scene, error) { return p.Scenes(kind) })
}

// ------------------------------------------------------------ compaction

// MergeSegmentRange appends partitions [from, to) in order to one new
// builder at the range's starting ID base. Each must start where the one
// before it ended (its manifest base equal to the merged counters so far), so
// no ID shifts: the result encodes byte-identically to indexing the same
// videos into one index at that base, and every answer over the compacted set
// matches the uncompacted one. A range whose bases do not chain fails.
func MergeSegmentRange(parts []*Part, metas []SegmentMeta, from, to int) (*MetaIndex, SegmentMeta, error) {
	if from < 0 || to > len(parts) || to-from < 1 {
		return nil, SegmentMeta{}, fmt.Errorf("core: bad merge range [%d, %d)", from, to)
	}
	dst := NewMetaIndexAt(metas[from].Base)
	for i := from; i < to; i++ {
		if dst.ids != metas[i].Base {
			return nil, SegmentMeta{}, fmt.Errorf("core: segment %d starts at IDs %+v, not where the range reached (%+v)",
				metas[i].ID, metas[i].Base, dst.ids)
		}
		dst.Append(parts[i], metas[i].Base)
	}
	return dst, SegmentMeta{ID: metas[from].ID, Base: metas[from].Base}, nil
}
