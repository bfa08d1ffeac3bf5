package core

import "testing"

func TestIntervalBasics(t *testing.T) {
	iv := Interval{4, 10}
	if iv.Len() != 6 {
		t.Fatalf("Len wrong: %v", iv)
	}
	if (Interval{5, 5}).Len() != 0 {
		t.Fatal("empty interval misbehaves")
	}
}

func TestLayerString(t *testing.T) {
	want := map[Layer]string{LayerRaw: "raw", LayerFeature: "feature", LayerObject: "object", LayerEvent: "event"}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("layer %d = %q", l, l.String())
		}
	}
}

func buildIndex(t *testing.T) *MetaIndex {
	t.Helper()
	m, err := NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	vid := m.AddVideo(Video{Name: "final-2001", Path: "/tmp/final.svf", Width: 160, Height: 120, FPS: 25, Frames: 500})
	vid2 := m.AddVideo(Video{Name: "semi-2001", Width: 160, Height: 120, FPS: 25, Frames: 300})

	seg1 := m.AddSegment(Segment{VideoID: vid, Interval: Interval{0, 100}, Class: "tennis"})
	m.AddSegment(Segment{VideoID: vid, Interval: Interval{100, 150}, Class: "close-up"})
	seg3 := m.AddSegment(Segment{VideoID: vid2, Interval: Interval{0, 80}, Class: "tennis"})

	obj := m.AddObject(Object{VideoID: vid, SegmentID: seg1, Name: "player-near", Interval: Interval{0, 100}})
	for f := 0; f < 10; f++ {
		m.AddState(ObjectState{
			ObjectID: obj, Frame: f, Found: true,
			X: float64(f) * 2, Y: 100, Area: 120,
			BBox: [4]int{10, 20, 30, 60}, Orientation: 1.5, Eccentricity: 0.9,
		})
	}
	m.AddEvent(Event{VideoID: vid, SegmentID: seg1, Kind: "net-play", Interval: Interval{60, 100}, ActorID: obj, Confidence: 0.9})
	_ = m.AddEvent(Event{VideoID: vid, SegmentID: seg1, Kind: "rally", Interval: Interval{0, 40}, ActorID: obj, Confidence: 0.8})
	_ = m.AddEvent(Event{VideoID: vid2, SegmentID: seg3, Kind: "net-play", Interval: Interval{10, 50}, Confidence: 0.7})
	m.features = append(m.features, FeatureValue{VideoID: vid, Frame: 0, Name: "entropy", Value: 4.2})
	return m
}

func TestMetaIndexRoundTripQueries(t *testing.T) {
	m := buildIndex(t).Freeze()

	vids := m.videos
	if len(vids) != 2 {
		t.Fatalf("videos = %v", vids)
	}
	v := vids[0]
	if v.Name != "final-2001" || v.Frames != 500 {
		t.Fatalf("Videos[0] = %+v", v)
	}
	if _, err := m.VideoByID(99); err == nil {
		t.Fatal("missing video found")
	}
	v2, err := m.VideoByID(v.ID)
	if err != nil || v2.Name != "final-2001" {
		t.Fatalf("VideoByID = %+v, %v", v2, err)
	}

	segs, err := m.SegmentsOf(v.ID)
	if err != nil || len(segs) != 2 {
		t.Fatalf("SegmentsOf = %v, %v", segs, err)
	}
	scenes, err := m.Scenes("net-play")
	if err != nil || len(scenes) != 2 {
		t.Fatalf("Scenes = %v, %v", scenes, err)
	}
	if scenes[0].Video.Name == "" || scenes[0].Event.Kind != "net-play" {
		t.Fatalf("scene malformed: %+v", scenes[0])
	}

	st := m.Stats()
	if st.Videos != 2 || st.Segments != 3 || st.Events != 3 || st.States != 10 || st.Objects != 1 || st.Features != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestMetaIndexPersistence(t *testing.T) {
	m := buildIndex(t)
	got, err := DeserializeMetaIndex(serialized(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats() != m.Stats() {
		t.Fatalf("stats after load = %+v, want %+v", got.Stats(), m.Stats())
	}
	// Queries work after load.
	scenes, err := got.Freeze().Scenes("net-play")
	if err != nil || len(scenes) != 2 {
		t.Fatalf("post-load Scenes = %v, %v", scenes, err)
	}
	// ID counters resume correctly: a new video gets a fresh ID.
	id := got.AddVideo(Video{Name: "fresh"})
	if id != 3 {
		t.Fatalf("resumed video id = %d, want 3", id)
	}
}

func TestDeserializeGarbage(t *testing.T) {
	if _, err := DeserializeMetaIndex([]byte("oops")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSceneString(t *testing.T) {
	s := Scene{
		Video: Video{Name: "v"},
		Event: Event{Kind: "net-play", Interval: Interval{5, 9}},
	}
	if s.String() != "v [5,9) net-play" {
		t.Fatalf("Scene.String = %q", s.String())
	}
}
