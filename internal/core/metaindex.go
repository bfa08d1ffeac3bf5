package core

import (
	"fmt"
	"sync/atomic"
)

// MetaIndex is the populated video meta-data database: all four COBRA
// layers in six typed tables (see tables.go). The FDE writes it; the
// digital-library search engine reads it. "Managing the meta-index now boils
// down to exploiting the dependencies in the feature grammar" — the index
// itself is plain tables.
//
// Concurrency: a MetaIndex is safe for any number of concurrent readers as
// long as no writer is active. Writes (the Add* methods and Append) require
// exclusive access, and only a private builder makes them: a library
// installs an index for reading once it is complete and never writes it
// again. A write drops the cached frozen view, so a builder that reads
// between writes still sees every row.
type MetaIndex struct {
	videos   []Video
	segments []Segment
	features []FeatureValue
	objects  []Object
	states   []ObjectState
	events   []Event
	// ids holds the last video, segment, object and event ID assigned.
	ids IDBase

	// viewSlot caches the frozen columnar read path (see view.go); every
	// write drops it.
	viewSlot   atomic.Pointer[viewSlot]
	viewBuilds atomic.Int64
}

// NewMetaIndex creates an empty meta-index. It does not fail; the error
// result keeps the signature the bench module compiles against.
func NewMetaIndex() (*MetaIndex, error) { return &MetaIndex{}, nil }

// NewMetaIndexAt creates an empty meta-index whose ID counters start at the
// given base — the building block of segmented libraries, where a new
// partition continues the global ID sequence of the partitions before it.
func NewMetaIndexAt(base IDBase) *MetaIndex { return &MetaIndex{ids: base} }

// IDState returns the current ID-counter state: the base the next segment
// of a segmented library must start at.
func (m *MetaIndex) IDState() IDBase { return m.ids }

// floorIDs raises any counter below the given base up to it (counters
// already past the base — restored from persisted rows — are kept).
func (m *MetaIndex) floorIDs(base IDBase) {
	m.ids.Video = max(m.ids.Video, base.Video)
	m.ids.Segment = max(m.ids.Segment, base.Segment)
	m.ids.Object = max(m.ids.Object, base.Object)
	m.ids.Event = max(m.ids.Event, base.Event)
}

// Append appends every row of src, whose IDs were assigned from base, after
// m's rows, table by table in src's row order. Each ID column (see tables)
// is shifted by m's counters minus base — a 0 reference stays 0 — and m's
// counters end as src's plus that shift. Appending the private one-video
// indexes of a batch from base zero, in job order, builds the index a
// sequential run would have; appending the parts of a compaction, each at
// its own base, shifts nothing.
func (m *MetaIndex) Append(src *MetaIndex, base IDBase) {
	shift := IDBase{
		Video: m.ids.Video - base.Video, Segment: m.ids.Segment - base.Segment,
		Object: m.ids.Object - base.Object, Event: m.ids.Event - base.Event,
	}
	for _, t := range tables {
		t.appendShifted(m, src, shift)
	}
	m.viewSlot.Store(nil)
	m.ids = IDBase{
		Video: src.ids.Video + shift.Video, Segment: src.ids.Segment + shift.Segment,
		Object: src.ids.Object + shift.Object, Event: src.ids.Event + shift.Event,
	}
}

// AddVideo registers a video and returns its assigned ID.
func (m *MetaIndex) AddVideo(v Video) int64 {
	m.ids.Video++
	v.ID = m.ids.Video
	m.videos = append(m.videos, v)
	m.viewSlot.Store(nil)
	return v.ID
}

// AddSegment registers a shot and returns its assigned ID.
func (m *MetaIndex) AddSegment(s Segment) int64 {
	m.ids.Segment++
	s.ID = m.ids.Segment
	m.segments = append(m.segments, s)
	m.viewSlot.Store(nil)
	return s.ID
}

// AddObject registers an object and returns its assigned ID.
func (m *MetaIndex) AddObject(o Object) int64 {
	m.ids.Object++
	o.ID = m.ids.Object
	m.objects = append(m.objects, o)
	m.viewSlot.Store(nil)
	return o.ID
}

// AddState records a per-frame object state.
func (m *MetaIndex) AddState(s ObjectState) {
	m.states = append(m.states, s)
	m.viewSlot.Store(nil)
}

// AddEvent registers an event and returns its assigned ID.
func (m *MetaIndex) AddEvent(e Event) int64 {
	m.ids.Event++
	e.ID = m.ids.Event
	m.events = append(m.events, e)
	m.viewSlot.Store(nil)
	return e.ID
}

// filter returns the rows keep accepts, in row order; never nil.
func filter[R any](rows []R, keep func(*R) bool) []R {
	out := []R{}
	for i := range rows {
		if keep(&rows[i]) {
			out = append(out, rows[i])
		}
	}
	return out
}

// VideoByID returns the video with the given ID.
func (m *MetaIndex) VideoByID(id int64) (Video, error) {
	for _, v := range m.videos {
		if v.ID == id {
			return v, nil
		}
	}
	return Video{}, fmt.Errorf("core: no video with id %d", id)
}

// SegmentsOf returns all shots of a video in index order.
func (m *MetaIndex) SegmentsOf(videoID int64) ([]Segment, error) {
	return filter(m.segments, func(s *Segment) bool { return s.VideoID == videoID }), nil
}

// Scenes returns playable scenes for all events of the given kind, joining
// events with their videos. The join is precomputed in the frozen view, so
// a hot call is a single slice copy.
func (m *MetaIndex) Scenes(kind string) ([]Scene, error) {
	v := m.frozenView()
	kv := v.kinds[kind]
	if kv == nil {
		return []Scene{}, nil
	}
	if kv.sceneErr != nil {
		return nil, kv.sceneErr
	}
	out := make([]Scene, len(kv.scenes))
	copy(out, kv.scenes)
	return out, nil
}

// ScenesReference is the retained scan path of Scenes: an event scan, then
// a video scan per event.
func (m *MetaIndex) ScenesReference(kind string) ([]Scene, error) {
	evs := filter(m.events, func(e *Event) bool { return e.Kind == kind })
	out := make([]Scene, 0, len(evs))
	for _, e := range evs {
		v, err := m.VideoByID(e.VideoID)
		if err != nil {
			return nil, err
		}
		out = append(out, Scene{Video: v, Event: e})
	}
	return out, nil
}

// Stats summarizes the index contents.
type Stats struct {
	Videos, Segments, Features, Objects, States, Events int
}

// Stats returns row counts per layer.
func (m *MetaIndex) Stats() Stats {
	return Stats{
		Videos:   len(m.videos),
		Segments: len(m.segments),
		Features: len(m.features),
		Objects:  len(m.objects),
		States:   len(m.states),
		Events:   len(m.events),
	}
}
