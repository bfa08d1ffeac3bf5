package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// tableSet is the populated video meta-data database: all four COBRA layers
// in six typed tables (see tables.go), plus the ID counters. A MetaIndex
// grows one; a Part serves one. Its methods only read.
type tableSet struct {
	videos   []Video
	segments []Segment
	features []FeatureValue
	objects  []Object
	states   wireRows
	events   []Event
	// ids holds the last video, segment, object and event ID assigned.
	ids IDBase
}

// MetaIndex builds a meta-index partition. The FDE writes it; the
// digital-library search engine reads only what Freeze hands over. "Managing
// the meta-index now boils down to exploiting the dependencies in the
// feature grammar" — the index itself is plain tables.
//
// Concurrency: a MetaIndex has one writer at a time (the Add* methods and
// Append) and no query path; Stats and IDState are its only reads.
type MetaIndex struct{ tableSet }

// Part is a served meta-index partition: the rows of a MetaIndex as Freeze
// found them. It has no write method, so any number of readers may share it
// and every answer it gives stays the same. Its scene view (view.go) is
// built at the first read and kept.
type Part struct {
	tableSet
	once sync.Once
	view atomic.Pointer[metaView]
}

// NewMetaIndex creates an empty meta-index. It does not fail; the error
// result keeps the signature the bench module compiles against.
func NewMetaIndex() (*MetaIndex, error) { return &MetaIndex{}, nil }

// NewMetaIndexAt creates an empty meta-index whose ID counters start at the
// given base — the building block of segmented libraries, where a new
// partition continues the global ID sequence of the partitions before it.
func NewMetaIndexAt(base IDBase) *MetaIndex { return &MetaIndex{tableSet{ids: base}} }

// Freeze returns m's rows as a Part in O(1). Each table is handed over
// clipped to its length, so a later write to m appends to memory the Part
// never reads: m stays a builder, and the Part never changes.
func (m *MetaIndex) Freeze() *Part {
	states := m.states.freeze()
	return &Part{tableSet: tableSet{
		videos:   slices.Clip(m.videos),
		segments: slices.Clip(m.segments),
		features: slices.Clip(m.features),
		objects:  slices.Clip(m.objects),
		states:   states,
		events:   slices.Clip(m.events),
		ids:      m.ids,
	}}
}

// IDState returns the current ID-counter state: the base the next segment
// of a segmented library must start at.
func (t *tableSet) IDState() IDBase { return t.ids }

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
func (m *MetaIndex) Append(src *Part, base IDBase) {
	shift := IDBase{
		Video: m.ids.Video - base.Video, Segment: m.ids.Segment - base.Segment,
		Object: m.ids.Object - base.Object, Event: m.ids.Event - base.Event,
	}
	for _, t := range tables {
		t.appendShifted(&m.tableSet, &src.tableSet, shift)
	}
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
	return v.ID
}

// AddSegment registers a shot and returns its assigned ID.
func (m *MetaIndex) AddSegment(s Segment) int64 {
	m.ids.Segment++
	s.ID = m.ids.Segment
	m.segments = append(m.segments, s)
	return s.ID
}

// AddObject registers an object and returns its assigned ID.
func (m *MetaIndex) AddObject(o Object) int64 {
	m.ids.Object++
	o.ID = m.ids.Object
	m.objects = append(m.objects, o)
	return o.ID
}

// AddState records a per-frame object state, encoded into the states
// table's wire columns.
func (m *MetaIndex) AddState(s ObjectState) {
	statesTable.push(&m.states, &s)
}

// AddEvent registers an event and returns its assigned ID.
func (m *MetaIndex) AddEvent(e Event) int64 {
	m.ids.Event++
	e.ID = m.ids.Event
	m.events = append(m.events, e)
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
func (p *Part) VideoByID(id int64) (Video, error) {
	for _, v := range p.videos {
		if v.ID == id {
			return v, nil
		}
	}
	return Video{}, fmt.Errorf("core: no video with id %d", id)
}

// SegmentsOf returns all shots of a video in index order.
func (p *Part) SegmentsOf(videoID int64) ([]Segment, error) {
	return filter(p.segments, func(s *Segment) bool { return s.VideoID == videoID }), nil
}

// Scenes returns playable scenes for all events of the given kind, joining
// events with their videos. The join is precomputed in the frozen view, so
// a hot call is a single slice copy.
func (p *Part) Scenes(kind string) ([]Scene, error) {
	kv := p.frozenView().kinds[kind]
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
func (p *Part) ScenesReference(kind string) ([]Scene, error) {
	evs := filter(p.events, func(e *Event) bool { return e.Kind == kind })
	out := make([]Scene, 0, len(evs))
	for _, e := range evs {
		v, err := p.VideoByID(e.VideoID)
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
func (t *tableSet) Stats() Stats {
	return Stats{
		Videos:   len(t.videos),
		Segments: len(t.segments),
		Features: len(t.features),
		Objects:  len(t.objects),
		States:   t.states.n,
		Events:   len(t.events),
	}
}
