package core

import (
	"fmt"
	"io"
	"slices"
	"sync/atomic"

	"repro/internal/store"
)

// MetaIndex is the populated video meta-data database: all four COBRA
// layers stored in the column store. The FDE writes it; the digital-library
// search engine reads it. "Managing the meta-index now boils down to
// exploiting the dependencies in the feature grammar" — the index itself is
// plain tables.
//
// Concurrency: a MetaIndex is safe for any number of concurrent readers as
// long as no writer is active (the serving path). Writes (the Add* methods
// and Append) require exclusive access. Every write bumps Version, so
// read-side caches can tag entries with the version they observed and drop
// them when the index has moved on.
type MetaIndex struct {
	db       *store.DB
	videos   *store.Table
	segments *store.Table
	features *store.Table
	objects  *store.Table
	states   *store.Table
	events   *store.Table
	// ids holds the last video, segment, object and event ID assigned.
	ids     IDBase
	version atomic.Int64

	// viewSlot caches the frozen columnar read path (see view.go); it is
	// invalidated by comparing its version tag against the write counter.
	viewSlot   atomic.Pointer[viewSlot]
	viewBuilds atomic.Int64
}

// Version returns a counter that increases on every mutation of the index.
// It is safe to read concurrently with writers, making it a cheap staleness
// check for query-result caches layered above the index.
func (m *MetaIndex) Version() int64 { return m.version.Load() }

// schemas declares the six meta-index tables, in the order of MetaIndex's
// table fields (see bind). NewMetaIndex creates them; a decoded index must
// match them column for column — name, type and order — because the row
// decoders (videoAt, eventAt, ...) read cells by position.
var schemas = [...]store.Schema{
	{Name: "videos", Columns: []store.Column{
		{Name: "id", Type: store.TInt},
		{Name: "name", Type: store.TString},
		{Name: "path", Type: store.TString},
		{Name: "width", Type: store.TInt},
		{Name: "height", Type: store.TInt},
		{Name: "fps", Type: store.TInt},
		{Name: "frames", Type: store.TInt},
	}},
	{Name: "segments", Columns: []store.Column{
		{Name: "id", Type: store.TInt},
		{Name: "video", Type: store.TInt},
		{Name: "start", Type: store.TInt},
		{Name: "end", Type: store.TInt},
		{Name: "class", Type: store.TString},
	}},
	{Name: "features", Columns: []store.Column{
		{Name: "video", Type: store.TInt},
		{Name: "frame", Type: store.TInt},
		{Name: "name", Type: store.TString},
		{Name: "value", Type: store.TFloat},
	}},
	{Name: "objects", Columns: []store.Column{
		{Name: "id", Type: store.TInt},
		{Name: "video", Type: store.TInt},
		{Name: "segment", Type: store.TInt},
		{Name: "name", Type: store.TString},
		{Name: "start", Type: store.TInt},
		{Name: "end", Type: store.TInt},
	}},
	{Name: "states", Columns: []store.Column{
		{Name: "object", Type: store.TInt},
		{Name: "frame", Type: store.TInt},
		{Name: "found", Type: store.TBool},
		{Name: "x", Type: store.TFloat},
		{Name: "y", Type: store.TFloat},
		{Name: "vx", Type: store.TFloat},
		{Name: "vy", Type: store.TFloat},
		{Name: "area", Type: store.TInt},
		{Name: "bx0", Type: store.TInt},
		{Name: "by0", Type: store.TInt},
		{Name: "bx1", Type: store.TInt},
		{Name: "by1", Type: store.TInt},
		{Name: "orientation", Type: store.TFloat},
		{Name: "eccentricity", Type: store.TFloat},
	}},
	{Name: "events", Columns: []store.Column{
		{Name: "id", Type: store.TInt},
		{Name: "video", Type: store.TInt},
		{Name: "segment", Type: store.TInt},
		{Name: "kind", Type: store.TString},
		{Name: "start", Type: store.TInt},
		{Name: "end", Type: store.TInt},
		{Name: "actor", Type: store.TInt},
		{Name: "confidence", Type: store.TFloat},
	}},
}

// idColumns declares, per table in schemas order, the columns that hold an
// ID, each mapped to the IDBase counter its IDs are drawn from. "id" is the
// table's own key: metaIndexFromDB restores the counter from its maximum.
// Every other ID column references a key, 0 meaning none. Append shifts
// exactly these columns.
var idColumns = [len(schemas)]map[string]func(*IDBase) *int64{
	{"id": videoIDs},
	{"id": segmentIDs, "video": videoIDs},
	{"video": videoIDs},
	{"id": objectIDs, "video": videoIDs, "segment": segmentIDs},
	{"object": objectIDs},
	{"id": eventIDs, "video": videoIDs, "segment": segmentIDs, "actor": objectIDs},
}

func videoIDs(b *IDBase) *int64   { return &b.Video }
func segmentIDs(b *IDBase) *int64 { return &b.Segment }
func objectIDs(b *IDBase) *int64  { return &b.Object }
func eventIDs(b *IDBase) *int64   { return &b.Event }

// NewMetaIndex creates an empty meta-index with its schema.
func NewMetaIndex() (*MetaIndex, error) {
	m := &MetaIndex{db: store.NewDB()}
	if err := m.bind(m.db.Create); err != nil {
		return nil, fmt.Errorf("core: building meta-index schema: %w", err)
	}
	return m, nil
}

// bind points the table fields at what table returns for their schemas.
func (m *MetaIndex) bind(table func(store.Schema) (*store.Table, error)) error {
	fields := [len(schemas)]**store.Table{&m.videos, &m.segments, &m.features, &m.objects, &m.states, &m.events}
	for i, f := range fields {
		t, err := table(schemas[i])
		if err != nil {
			return err
		}
		*f = t
	}
	return nil
}

// tables returns the table fields in schemas order.
func (m *MetaIndex) tables() [len(schemas)]*store.Table {
	return [...]*store.Table{m.videos, m.segments, m.features, m.objects, m.states, m.events}
}

// NewMetaIndexAt creates an empty meta-index whose ID counters start at the
// given base — the building block of segmented libraries, where a new
// partition continues the global ID sequence of the partitions before it.
func NewMetaIndexAt(base IDBase) (*MetaIndex, error) {
	m, err := NewMetaIndex()
	if err != nil {
		return nil, err
	}
	m.ids = base
	return m, nil
}

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
// m's rows, table by table in src's row order. Each ID column (idColumns) is
// shifted by m's counters minus base — a 0 reference stays 0 — and m's
// counters end as src's plus that shift. Appending the private one-video
// indexes of a batch from base zero, in job order, builds the index a
// sequential run would have; appending the parts of a compaction, each at
// its own base, shifts nothing.
func (m *MetaIndex) Append(src *MetaIndex, base IDBase) error {
	shift := IDBase{
		Video: m.ids.Video - base.Video, Segment: m.ids.Segment - base.Segment,
		Object: m.ids.Object - base.Object, Event: m.ids.Event - base.Event,
	}
	from, to := src.tables(), m.tables()
	for t, ids := range idColumns {
		delta := make([]int64, len(schemas[t].Columns))
		for col, counter := range ids {
			delta[schemas[t].Col(col)] = *counter(&shift)
		}
		row := make([]store.Value, len(delta))
		for r := 0; r < from[t].Len(); r++ {
			for c := range row {
				row[c], _ = from[t].Get(r, c) // in range: cannot fail
				if row[c].I != 0 {
					row[c].I += delta[c]
				}
			}
			if err := to[t].Append(row...); err != nil {
				return fmt.Errorf("core: append %s: %w", schemas[t].Name, err)
			}
		}
		m.version.Add(int64(from[t].Len()))
	}
	m.ids = IDBase{
		Video: src.ids.Video + shift.Video, Segment: src.ids.Segment + shift.Segment,
		Object: src.ids.Object + shift.Object, Event: src.ids.Event + shift.Event,
	}
	return nil
}

// AddVideo registers a video and returns its assigned ID.
func (m *MetaIndex) AddVideo(v Video) (int64, error) {
	m.ids.Video++
	v.ID = m.ids.Video
	err := m.videos.Append(
		store.Int(v.ID), store.Str(v.Name), store.Str(v.Path),
		store.Int(int64(v.Width)), store.Int(int64(v.Height)),
		store.Int(int64(v.FPS)), store.Int(int64(v.Frames)),
	)
	if err != nil {
		return 0, fmt.Errorf("core: add video: %w", err)
	}
	m.version.Add(1)
	return v.ID, nil
}

// AddSegment registers a shot and returns its assigned ID.
func (m *MetaIndex) AddSegment(s Segment) (int64, error) {
	m.ids.Segment++
	s.ID = m.ids.Segment
	err := m.segments.Append(
		store.Int(s.ID), store.Int(s.VideoID),
		store.Int(int64(s.Start)), store.Int(int64(s.End)),
		store.Str(s.Class),
	)
	if err != nil {
		return 0, fmt.Errorf("core: add segment: %w", err)
	}
	m.version.Add(1)
	return s.ID, nil
}

// AddFeature records a feature-layer measurement.
func (m *MetaIndex) AddFeature(f FeatureValue) error {
	err := m.features.Append(
		store.Int(f.VideoID), store.Int(int64(f.Frame)),
		store.Str(f.Name), store.Float(f.Value),
	)
	if err != nil {
		return fmt.Errorf("core: add feature: %w", err)
	}
	m.version.Add(1)
	return nil
}

// AddObject registers an object and returns its assigned ID.
func (m *MetaIndex) AddObject(o Object) (int64, error) {
	m.ids.Object++
	o.ID = m.ids.Object
	err := m.objects.Append(
		store.Int(o.ID), store.Int(o.VideoID), store.Int(o.SegmentID),
		store.Str(o.Name), store.Int(int64(o.Start)), store.Int(int64(o.End)),
	)
	if err != nil {
		return 0, fmt.Errorf("core: add object: %w", err)
	}
	m.version.Add(1)
	return o.ID, nil
}

// AddState records a per-frame object state.
func (m *MetaIndex) AddState(s ObjectState) error {
	err := m.states.Append(
		store.Int(s.ObjectID), store.Int(int64(s.Frame)), store.Bool(s.Found),
		store.Float(s.X), store.Float(s.Y), store.Float(s.VX), store.Float(s.VY),
		store.Int(int64(s.Area)),
		store.Int(int64(s.BBox[0])), store.Int(int64(s.BBox[1])),
		store.Int(int64(s.BBox[2])), store.Int(int64(s.BBox[3])),
		store.Float(s.Orientation), store.Float(s.Eccentricity),
	)
	if err != nil {
		return fmt.Errorf("core: add state: %w", err)
	}
	m.version.Add(1)
	return nil
}

// AddEvent registers an event and returns its assigned ID.
func (m *MetaIndex) AddEvent(e Event) (int64, error) {
	m.ids.Event++
	e.ID = m.ids.Event
	err := m.events.Append(
		store.Int(e.ID), store.Int(e.VideoID), store.Int(e.SegmentID),
		store.Str(e.Kind), store.Int(int64(e.Start)), store.Int(int64(e.End)),
		store.Int(e.ActorID), store.Float(e.Confidence),
	)
	if err != nil {
		return 0, fmt.Errorf("core: add event: %w", err)
	}
	m.version.Add(1)
	return e.ID, nil
}

// Videos returns all registered videos.
func (m *MetaIndex) Videos() ([]Video, error) {
	out := make([]Video, 0, m.videos.Len())
	for i := 0; i < m.videos.Len(); i++ {
		v, err := m.videoAt(i)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (m *MetaIndex) videoAt(row int) (Video, error) {
	r, err := m.videos.Row(row)
	if err != nil {
		return Video{}, err
	}
	return Video{
		ID: r[0].I, Name: r[1].S, Path: r[2].S,
		Width: int(r[3].I), Height: int(r[4].I),
		FPS: int(r[5].I), Frames: int(r[6].I),
	}, nil
}

// VideoByID returns the video with the given ID.
func (m *MetaIndex) VideoByID(id int64) (Video, error) {
	rows, err := m.videos.Lookup("id", store.Int(id))
	if err != nil {
		return Video{}, err
	}
	if len(rows) == 0 {
		return Video{}, fmt.Errorf("core: no video with id %d", id)
	}
	return m.videoAt(rows[0])
}

// VideoByName returns the video with the given name.
func (m *MetaIndex) VideoByName(name string) (Video, error) {
	rows, err := m.videos.Lookup("name", store.Str(name))
	if err != nil {
		return Video{}, err
	}
	if len(rows) == 0 {
		return Video{}, fmt.Errorf("core: no video named %q", name)
	}
	return m.videoAt(rows[0])
}

func (m *MetaIndex) segmentAt(row int) (Segment, error) {
	r, err := m.segments.Row(row)
	if err != nil {
		return Segment{}, err
	}
	return Segment{
		ID: r[0].I, VideoID: r[1].I,
		Interval: Interval{Start: int(r[2].I), End: int(r[3].I)},
		Class:    r[4].S,
	}, nil
}

// SegmentsOf returns all shots of a video in index order.
func (m *MetaIndex) SegmentsOf(videoID int64) ([]Segment, error) {
	rows, err := m.segments.Lookup("video", store.Int(videoID))
	if err != nil {
		return nil, err
	}
	out := make([]Segment, 0, len(rows))
	for _, row := range rows {
		s, err := m.segmentAt(row)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// SegmentsByClass returns all shots with the given class across videos.
func (m *MetaIndex) SegmentsByClass(class string) ([]Segment, error) {
	rows, err := m.segments.Lookup("class", store.Str(class))
	if err != nil {
		return nil, err
	}
	out := make([]Segment, 0, len(rows))
	for _, row := range rows {
		s, err := m.segmentAt(row)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (m *MetaIndex) eventAt(row int) (Event, error) {
	r, err := m.events.Row(row)
	if err != nil {
		return Event{}, err
	}
	return Event{
		ID: r[0].I, VideoID: r[1].I, SegmentID: r[2].I, Kind: r[3].S,
		Interval: Interval{Start: int(r[4].I), End: int(r[5].I)},
		ActorID:  r[6].I, Confidence: r[7].F,
	}, nil
}

// EventsByKind returns all events of the given kind, answered from the
// frozen columnar view (a slice copy; no store round-trips).
func (m *MetaIndex) EventsByKind(kind string) ([]Event, error) {
	v, err := m.frozenView()
	if err != nil {
		return nil, err
	}
	kv := v.kinds[kind]
	if kv == nil {
		return []Event{}, nil
	}
	out := make([]Event, len(kv.events))
	copy(out, kv.events)
	return out, nil
}

// EventsByKindReference is the retained row-store path of EventsByKind:
// a scan of the events table plus per-row decode. It exists so parity tests
// and benchmarks can cross-check the frozen view; both must return identical
// output on any index.
func (m *MetaIndex) EventsByKindReference(kind string) ([]Event, error) {
	rows, err := m.events.Lookup("kind", store.Str(kind))
	if err != nil {
		return nil, err
	}
	out := make([]Event, 0, len(rows))
	for _, row := range rows {
		e, err := m.eventAt(row)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// EventsOf returns all events of a video, answered from the frozen view.
func (m *MetaIndex) EventsOf(videoID int64) ([]Event, error) {
	v, err := m.frozenView()
	if err != nil {
		return nil, err
	}
	evs := v.eventsByVideo[videoID]
	out := make([]Event, len(evs))
	copy(out, evs)
	return out, nil
}

// EventsOfReference is the retained row-store path of EventsOf (a scan).
func (m *MetaIndex) EventsOfReference(videoID int64) ([]Event, error) {
	rows, err := m.events.Lookup("video", store.Int(videoID))
	if err != nil {
		return nil, err
	}
	out := make([]Event, 0, len(rows))
	for _, row := range rows {
		e, err := m.eventAt(row)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// Scenes returns playable scenes for all events of the given kind, joining
// events with their videos. The join is precomputed in the frozen view, so
// a hot call is a single slice copy.
func (m *MetaIndex) Scenes(kind string) ([]Scene, error) {
	v, err := m.frozenView()
	if err != nil {
		return nil, err
	}
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

// ScenesReference is the retained row-store path of Scenes: an event scan,
// then a video scan and row decode per event.
func (m *MetaIndex) ScenesReference(kind string) ([]Scene, error) {
	evs, err := m.EventsByKindReference(kind)
	if err != nil {
		return nil, err
	}
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

// ObjectsIn returns the objects tracked within a segment.
func (m *MetaIndex) ObjectsIn(segmentID int64) ([]Object, error) {
	rows, err := m.objects.Lookup("segment", store.Int(segmentID))
	if err != nil {
		return nil, err
	}
	out := make([]Object, 0, len(rows))
	for _, row := range rows {
		r, err := m.objects.Row(row)
		if err != nil {
			return nil, err
		}
		out = append(out, Object{
			ID: r[0].I, VideoID: r[1].I, SegmentID: r[2].I, Name: r[3].S,
			Interval: Interval{Start: int(r[4].I), End: int(r[5].I)},
		})
	}
	return out, nil
}

// StatesOf returns the per-frame states of an object in frame order.
func (m *MetaIndex) StatesOf(objectID int64) ([]ObjectState, error) {
	rows, err := m.states.Lookup("object", store.Int(objectID))
	if err != nil {
		return nil, err
	}
	out := make([]ObjectState, 0, len(rows))
	for _, row := range rows {
		r, err := m.states.Row(row)
		if err != nil {
			return nil, err
		}
		out = append(out, ObjectState{
			ObjectID: r[0].I, Frame: int(r[1].I), Found: r[2].B,
			X: r[3].F, Y: r[4].F, VX: r[5].F, VY: r[6].F,
			Area:        int(r[7].I),
			BBox:        [4]int{int(r[8].I), int(r[9].I), int(r[10].I), int(r[11].I)},
			Orientation: r[12].F, Eccentricity: r[13].F,
		})
	}
	return out, nil
}

// FeaturesOf returns all feature-layer measurements of a video in append
// order.
func (m *MetaIndex) FeaturesOf(videoID int64) ([]FeatureValue, error) {
	rows, err := m.features.Lookup("video", store.Int(videoID))
	if err != nil {
		return nil, err
	}
	out := make([]FeatureValue, 0, len(rows))
	for _, row := range rows {
		r, err := m.features.Row(row)
		if err != nil {
			return nil, err
		}
		out = append(out, FeatureValue{
			VideoID: r[0].I, Frame: int(r[1].I), Name: r[2].S, Value: r[3].F,
		})
	}
	return out, nil
}

// FeaturesNamed returns all measurements of the named feature.
func (m *MetaIndex) FeaturesNamed(name string) ([]FeatureValue, error) {
	rows, err := m.features.Lookup("name", store.Str(name))
	if err != nil {
		return nil, err
	}
	out := make([]FeatureValue, 0, len(rows))
	for _, row := range rows {
		r, err := m.features.Row(row)
		if err != nil {
			return nil, err
		}
		out = append(out, FeatureValue{
			VideoID: r[0].I, Frame: int(r[1].I), Name: r[2].S, Value: r[3].F,
		})
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
		Videos:   m.videos.Len(),
		Segments: m.segments.Len(),
		Features: m.features.Len(),
		Objects:  m.objects.Len(),
		States:   m.states.Len(),
		Events:   m.events.Len(),
	}
}

// Serialize writes the meta-index to w.
func (m *MetaIndex) Serialize(w io.Writer) error { return m.db.Serialize(w) }

// DeserializeMetaIndex reads a meta-index written by Serialize and restores
// its ID counters.
func DeserializeMetaIndex(r io.Reader) (*MetaIndex, error) {
	db, err := store.Deserialize(r)
	if err != nil {
		return nil, err
	}
	return metaIndexFromDB(db)
}

// metaIndexFromDB rebuilds a meta-index around an already-deserialized
// database: each table is checked against its schema, then the ID counters
// are restored from the maxima of the key columns (segmented loads
// additionally floor them at the manifest base).
func metaIndexFromDB(db *store.DB) (*MetaIndex, error) {
	m := &MetaIndex{db: db}
	err := m.bind(func(want store.Schema) (*store.Table, error) {
		t, err := db.Table(want.Name)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(t.Schema().Columns, want.Columns) {
			return nil, fmt.Errorf("table %q has columns %v, want %v", want.Name, t.Schema().Columns, want.Columns)
		}
		return t, nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: loading meta-index: %w", err)
	}
	// Restore ID counters from the maxima of the key columns (int columns by
	// the schema check above).
	for i, t := range m.tables() {
		counter, col := idColumns[i]["id"], schemas[i].Col("id")
		if counter == nil {
			continue
		}
		id := counter(&m.ids)
		for row := 0; row < t.Len(); row++ {
			v, err := t.Get(row, col)
			if err != nil {
				return nil, fmt.Errorf("core: restoring id counters: %w", err)
			}
			*id = max(*id, v.I)
		}
	}
	return m, nil
}
