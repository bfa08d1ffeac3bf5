package core

// Segmented meta-index: an ordered set of immutable MetaIndex partitions
// read as one logical COBRA meta-index. Every entity ID space (video,
// segment, object, event) is partitioned contiguously in segment order —
// segment i's counters start where segment i-1's ended — so concatenating
// per-segment answers in segment order reproduces, row for row, the answer
// a single monolithic index built from the same videos in the same order
// would give. A manifest records the partitioning (segment IDs, ID bases,
// generation) and is persisted alongside the parts (see segfile.go).

import (
	"fmt"

	"repro/internal/store"
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

// SegmentedIndex is an immutable reader over an ordered set of MetaIndex
// partitions. The value itself is a snapshot: installing a new segment set
// builds a new SegmentedIndex, so readers holding an old one are never
// disturbed. (The underlying parts follow the MetaIndex concurrency rule:
// safe for concurrent readers as long as no writer is active.)
type SegmentedIndex struct {
	parts []*MetaIndex
	metas []SegmentMeta
	gen   int64
	// src, when non-nil, backs a lazy view: partitions decode on first
	// touch from an open SegfileLibrary and parts stays nil. Manifest-only
	// reads (Stats, Version, Metas, NumSegments) never trigger a decode.
	src *SegfileLibrary
}

// NewSegmentedIndex builds a reader over the given parts. parts and metas
// must be the same length and in segment order; the slices are copied.
func NewSegmentedIndex(parts []*MetaIndex, metas []SegmentMeta, gen int64) (*SegmentedIndex, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: segmented index needs at least one partition")
	}
	if len(parts) != len(metas) {
		return nil, fmt.Errorf("core: %d parts but %d manifest entries", len(parts), len(metas))
	}
	return &SegmentedIndex{
		parts: append([]*MetaIndex(nil), parts...),
		metas: append([]SegmentMeta(nil), metas...),
		gen:   gen,
	}, nil
}

// SingleSegment wraps one MetaIndex as a one-partition segmented view —
// the bridge from the monolithic API surface.
func SingleSegment(m *MetaIndex) *SegmentedIndex {
	return &SegmentedIndex{parts: []*MetaIndex{m}, metas: []SegmentMeta{{ID: 1}}}
}

// NumSegments returns the partition count.
func (s *SegmentedIndex) NumSegments() int { return len(s.metas) }

// partAt returns partition i, decoding it first on a lazy view.
func (s *SegmentedIndex) partAt(i int) (*MetaIndex, error) {
	if i < 0 || i >= len(s.metas) {
		return nil, fmt.Errorf("core: no segment ordinal %d (have %d)", i, len(s.metas))
	}
	if s.src != nil {
		return s.src.Part(i)
	}
	return s.parts[i], nil
}

// Part returns partition i. On a lazy view this hydrates the segment and
// panics if its block fails verification or decode — callers that must
// handle corrupt storage gracefully use PartScenes/PartStats or the
// SegfileLibrary directly.
func (s *SegmentedIndex) Part(i int) *MetaIndex {
	p, err := s.partAt(i)
	if err != nil {
		panic(err)
	}
	return p
}

// Meta returns partition i's manifest entry.
func (s *SegmentedIndex) Meta(i int) SegmentMeta { return s.metas[i] }

// Metas returns a copy of the full segment manifest in partition order —
// the placement input of the distributed tier.
func (s *SegmentedIndex) Metas() []SegmentMeta {
	return append([]SegmentMeta(nil), s.metas...)
}

// PartScenes returns partition ord's scenes of the given event kind — the
// partial-read primitive of the distributed tier. Concatenating PartScenes
// answers in ordinal order reproduces Scenes exactly (that is how Scenes
// itself is built), so a gather over nodes serving disjoint ordinal sets
// is byte-identical to the local read.
func (s *SegmentedIndex) PartScenes(ord int, kind string) ([]Scene, error) {
	p, err := s.partAt(ord)
	if err != nil {
		return nil, err
	}
	return p.Scenes(kind)
}

// PartStats returns partition ord's row counts. On a lazy view this reads
// the persisted manifest and never decodes the segment.
func (s *SegmentedIndex) PartStats(ord int) (Stats, error) {
	if ord < 0 || ord >= len(s.metas) {
		return Stats{}, fmt.Errorf("core: no segment ordinal %d (have %d)", ord, len(s.metas))
	}
	if s.src != nil {
		return s.src.PartStats(ord), nil
	}
	return s.parts[ord].Stats(), nil
}

// Generation returns the segment-set generation: it increases every time
// the set changes (commit, compaction, reload).
func (s *SegmentedIndex) Generation() int64 { return s.gen }

// Version returns a counter that changes whenever any partition is written
// or the segment set itself changes — the staleness signal for caches
// layered above the index, like MetaIndex.Version.
func (s *SegmentedIndex) Version() int64 {
	if s.src != nil {
		// Hydration itself never moves this: an undecoded segment counts 0,
		// which is exactly the version a freshly decoded segment reports.
		return s.gen + s.src.versionSum()
	}
	v := s.gen
	for _, p := range s.parts {
		v += p.Version()
	}
	return v
}

// Stats sums row counts across partitions. On a lazy view the counts come
// from the persisted manifest — no segment is decoded.
func (s *SegmentedIndex) Stats() Stats {
	if s.src != nil {
		return s.src.Stats()
	}
	var out Stats
	for _, p := range s.parts {
		st := p.Stats()
		out.Videos += st.Videos
		out.Segments += st.Segments
		out.Features += st.Features
		out.Objects += st.Objects
		out.States += st.States
		out.Events += st.Events
	}
	return out
}

// partFor returns the partition owning the given ID of the named counter
// (the last partition whose base is below id).
func (s *SegmentedIndex) partFor(id int64, base func(SegmentMeta) int64) (*MetaIndex, error) {
	for i := len(s.metas) - 1; i > 0; i-- {
		if base(s.metas[i]) < id {
			return s.partAt(i)
		}
	}
	return s.partAt(0)
}

// Videos returns all registered videos in ID order.
func (s *SegmentedIndex) Videos() ([]Video, error) {
	var out []Video
	for i := 0; i < len(s.metas); i++ {
		p, err := s.partAt(i)
		if err != nil {
			return nil, err
		}
		vs, err := p.Videos()
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	return out, nil
}

// VideoByID returns the video with the given ID.
func (s *SegmentedIndex) VideoByID(id int64) (Video, error) {
	p, err := s.partFor(id, func(m SegmentMeta) int64 { return m.Base.Video })
	if err != nil {
		return Video{}, err
	}
	return p.VideoByID(id)
}

// VideoByName returns the video with the given name (first match in
// segment order, like the monolithic index's row order). Real storage
// errors propagate; only a genuinely absent name reports not-found.
func (s *SegmentedIndex) VideoByName(name string) (Video, error) {
	for i := 0; i < len(s.metas); i++ {
		p, err := s.partAt(i)
		if err != nil {
			return Video{}, err
		}
		rows, err := p.videos.Select(store.Eq("name", store.Str(name)))
		if err != nil {
			return Video{}, err
		}
		if len(rows) > 0 {
			return p.videoAt(rows[0])
		}
	}
	return Video{}, fmt.Errorf("core: no video named %q", name)
}

// SegmentsOf returns all shots of a video in index order.
func (s *SegmentedIndex) SegmentsOf(videoID int64) ([]Segment, error) {
	p, err := s.partFor(videoID, func(m SegmentMeta) int64 { return m.Base.Video })
	if err != nil {
		return nil, err
	}
	return p.SegmentsOf(videoID)
}

// EventsOf returns all events of a video.
func (s *SegmentedIndex) EventsOf(videoID int64) ([]Event, error) {
	p, err := s.partFor(videoID, func(m SegmentMeta) int64 { return m.Base.Video })
	if err != nil {
		return nil, err
	}
	return p.EventsOf(videoID)
}

// EventsByKind returns all events of the given kind, in segment order —
// the append order of the monolithic build.
func (s *SegmentedIndex) EventsByKind(kind string) ([]Event, error) {
	var out []Event
	for i := 0; i < len(s.metas); i++ {
		p, err := s.partAt(i)
		if err != nil {
			return nil, err
		}
		evs, err := p.EventsByKind(kind)
		if err != nil {
			return nil, err
		}
		out = append(out, evs...)
	}
	return out, nil
}

// Scenes returns playable scenes for all events of the given kind.
func (s *SegmentedIndex) Scenes(kind string) ([]Scene, error) {
	var out []Scene
	for i := 0; i < len(s.metas); i++ {
		sc, err := s.PartScenes(i, kind)
		if err != nil {
			return nil, err
		}
		out = append(out, sc...)
	}
	return out, nil
}

// EventsRelated answers the composite temporal query across all
// partitions. Related events always share a video, and a video lives
// wholly inside one partition, so the per-partition answers concatenate in
// segment order — the monolithic pair order (ascending by the position of
// the first event in EventsByKind).
func (s *SegmentedIndex) EventsRelated(kindA, kindB string, wanted ...AllenRelation) ([]EventPair, error) {
	var out []EventPair
	for i := 0; i < len(s.metas); i++ {
		p, err := s.partAt(i)
		if err != nil {
			return nil, err
		}
		ps, err := p.EventsRelated(kindA, kindB, wanted...)
		if err != nil {
			return nil, err
		}
		out = append(out, ps...)
	}
	return out, nil
}

// EventsFollowing returns kindB events starting within maxGap frames after
// a kindA event ends, across all partitions.
func (s *SegmentedIndex) EventsFollowing(kindA, kindB string, maxGap int) ([]EventPair, error) {
	var out []EventPair
	for i := 0; i < len(s.metas); i++ {
		p, err := s.partAt(i)
		if err != nil {
			return nil, err
		}
		ps, err := p.EventsFollowing(kindA, kindB, maxGap)
		if err != nil {
			return nil, err
		}
		out = append(out, ps...)
	}
	return out, nil
}

// ScenesReference is Scenes through each partition's retained row-store
// path — the baseline the frozen columnar view is benchmarked and parity-
// tested against.
func (s *SegmentedIndex) ScenesReference(kind string) ([]Scene, error) {
	var out []Scene
	for i := 0; i < len(s.metas); i++ {
		p, err := s.partAt(i)
		if err != nil {
			return nil, err
		}
		sc, err := p.ScenesReference(kind)
		if err != nil {
			return nil, err
		}
		out = append(out, sc...)
	}
	return out, nil
}

// EventsByKindReference is EventsByKind through the row-store path.
func (s *SegmentedIndex) EventsByKindReference(kind string) ([]Event, error) {
	var out []Event
	for i := 0; i < len(s.metas); i++ {
		p, err := s.partAt(i)
		if err != nil {
			return nil, err
		}
		evs, err := p.EventsByKindReference(kind)
		if err != nil {
			return nil, err
		}
		out = append(out, evs...)
	}
	return out, nil
}

// EventsRelatedReference is EventsRelated through the row-store path.
func (s *SegmentedIndex) EventsRelatedReference(kindA, kindB string, wanted ...AllenRelation) ([]EventPair, error) {
	var out []EventPair
	for i := 0; i < len(s.metas); i++ {
		p, err := s.partAt(i)
		if err != nil {
			return nil, err
		}
		ps, err := p.EventsRelatedReference(kindA, kindB, wanted...)
		if err != nil {
			return nil, err
		}
		out = append(out, ps...)
	}
	return out, nil
}

// EventsFollowingReference is EventsFollowing through the row-store path.
func (s *SegmentedIndex) EventsFollowingReference(kindA, kindB string, maxGap int) ([]EventPair, error) {
	var out []EventPair
	for i := 0; i < len(s.metas); i++ {
		p, err := s.partAt(i)
		if err != nil {
			return nil, err
		}
		ps, err := p.EventsFollowingReference(kindA, kindB, maxGap)
		if err != nil {
			return nil, err
		}
		out = append(out, ps...)
	}
	return out, nil
}

// ViewBuilds sums the frozen-view build counters of the hydrated
// partitions — the number the serving layer exports as
// dl_sceneview_builds_total. Undecoded lazy segments count 0: they have
// never built a view.
func (s *SegmentedIndex) ViewBuilds() int64 {
	if s.src != nil {
		return s.src.viewBuildsSum()
	}
	var n int64
	for _, p := range s.parts {
		n += p.ViewBuilds()
	}
	return n
}

// ------------------------------------------------------------ compaction

// MergeSegmentRange replays partitions [from, to) into one new partition
// seeded at the range's starting ID base. Because every ID was originally
// assigned sequentially from that same base, the replay reassigns each row
// the ID it already had: the merged partition is byte-identical (Serialize)
// to indexing the same videos into one index at that base, and every query
// answer over the compacted set matches the uncompacted set exactly.
func MergeSegmentRange(parts []*MetaIndex, metas []SegmentMeta, from, to int) (*MetaIndex, SegmentMeta, error) {
	if from < 0 || to > len(parts) || to-from < 1 {
		return nil, SegmentMeta{}, fmt.Errorf("core: bad merge range [%d, %d)", from, to)
	}
	dst, err := NewMetaIndexAt(metas[from].Base)
	if err != nil {
		return nil, SegmentMeta{}, err
	}
	for i := from; i < to; i++ {
		vids, err := parts[i].Videos()
		if err != nil {
			return nil, SegmentMeta{}, err
		}
		for _, v := range vids {
			nvid, err := CopyVideo(dst, parts[i], v.ID)
			if err != nil {
				return nil, SegmentMeta{}, fmt.Errorf("core: compacting segment %d: %w", metas[i].ID, err)
			}
			if nvid != v.ID {
				return nil, SegmentMeta{}, fmt.Errorf("core: compaction renumbered video %d to %d", v.ID, nvid)
			}
		}
	}
	return dst, SegmentMeta{ID: metas[from].ID, Base: metas[from].Base}, nil
}

// CopyVideo replays one video's rows from src into dst, reassigning video,
// segment, object and event IDs from dst's counters, and returns the video's
// ID in dst. Row append order mirrors the materialization order of a direct
// sequential indexing run (segments, then objects with their states, then
// features, then events), so replaying videos in their original order — a
// compaction's segment range, or a batch ingest's per-job indexes in job
// order — reproduces the sequential index exactly.
func CopyVideo(dst, src *MetaIndex, videoID int64) (int64, error) {
	v, err := src.VideoByID(videoID)
	if err != nil {
		return 0, err
	}
	nvid, err := dst.AddVideo(v)
	if err != nil {
		return 0, err
	}
	segs, err := src.SegmentsOf(videoID)
	if err != nil {
		return 0, err
	}
	segMap := make(map[int64]int64, len(segs))
	for _, sg := range segs {
		old := sg.ID
		sg.VideoID = nvid
		nsid, err := dst.AddSegment(sg)
		if err != nil {
			return 0, err
		}
		segMap[old] = nsid
	}
	objMap := map[int64]int64{}
	for _, sg := range segs {
		objs, err := src.ObjectsIn(sg.ID)
		if err != nil {
			return 0, err
		}
		for _, o := range objs {
			old := o.ID
			o.VideoID = nvid
			o.SegmentID = segMap[sg.ID]
			noid, err := dst.AddObject(o)
			if err != nil {
				return 0, err
			}
			objMap[old] = noid
			states, err := src.StatesOf(old)
			if err != nil {
				return 0, err
			}
			for _, st := range states {
				st.ObjectID = noid
				if err := dst.AddState(st); err != nil {
					return 0, err
				}
			}
		}
	}
	feats, err := src.FeaturesOf(videoID)
	if err != nil {
		return 0, err
	}
	for _, f := range feats {
		f.VideoID = nvid
		if err := dst.AddFeature(f); err != nil {
			return 0, err
		}
	}
	evs, err := src.EventsOf(videoID)
	if err != nil {
		return 0, err
	}
	for _, e := range evs {
		e.VideoID = nvid
		e.SegmentID = segMap[e.SegmentID]
		if e.ActorID != 0 {
			e.ActorID = objMap[e.ActorID]
		}
		if _, err := dst.AddEvent(e); err != nil {
			return 0, err
		}
	}
	return nvid, nil
}
