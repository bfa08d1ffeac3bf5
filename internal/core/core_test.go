package core

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := NewInterval(10, 4)
	if iv != (Interval{4, 10}) {
		t.Fatalf("NewInterval did not canonicalize: %v", iv)
	}
	if iv.Len() != 6 || iv.Empty() {
		t.Fatalf("Len/Empty wrong: %v", iv)
	}
	if !iv.Contains(4) || iv.Contains(10) {
		t.Fatal("Contains is not half-open")
	}
	if (Interval{5, 5}).Len() != 0 || !(Interval{5, 5}).Empty() {
		t.Fatal("empty interval misbehaves")
	}
}

func TestIntervalSetOps(t *testing.T) {
	a := Interval{0, 10}
	b := Interval{5, 15}
	if a.Intersect(b) != (Interval{5, 10}) {
		t.Fatalf("Intersect = %v", a.Intersect(b))
	}
	if a.Union(b) != (Interval{0, 15}) {
		t.Fatalf("Union = %v", a.Union(b))
	}
	if got := a.Intersect(Interval{20, 30}); !got.Empty() {
		t.Fatalf("disjoint Intersect = %v", got)
	}
	if !a.Overlaps(b) || a.Overlaps(Interval{10, 20}) {
		t.Fatal("Overlaps wrong (half-open)")
	}
	if got := (Interval{}).Union(a); got != a {
		t.Fatalf("empty Union = %v", got)
	}
}

func TestIntervalIoU(t *testing.T) {
	a := Interval{0, 10}
	if got := a.IoU(a); got != 1 {
		t.Fatalf("self IoU = %v", got)
	}
	if got := a.IoU(Interval{5, 15}); got != 5.0/15.0 {
		t.Fatalf("IoU = %v", got)
	}
	if got := a.IoU(Interval{20, 30}); got != 0 {
		t.Fatalf("disjoint IoU = %v", got)
	}
	if got := (Interval{3, 3}).IoU(Interval{3, 3}); got != 0 {
		t.Fatalf("empty IoU = %v", got)
	}
}

func TestAllenRelations(t *testing.T) {
	cases := []struct {
		a, b Interval
		want AllenRelation
	}{
		{Interval{0, 2}, Interval{5, 8}, RelBefore},
		{Interval{0, 5}, Interval{5, 8}, RelMeets},
		{Interval{0, 6}, Interval{5, 8}, RelOverlaps},
		{Interval{5, 6}, Interval{5, 8}, RelStarts},
		{Interval{6, 7}, Interval{5, 8}, RelDuring},
		{Interval{6, 8}, Interval{5, 8}, RelFinishes},
		{Interval{5, 8}, Interval{5, 8}, RelEquals},
		{Interval{5, 8}, Interval{6, 8}, RelFinishedBy},
		{Interval{5, 8}, Interval{6, 7}, RelContains},
		{Interval{5, 8}, Interval{5, 6}, RelStartedBy},
		{Interval{5, 8}, Interval{0, 6}, RelOverlappedBy},
		{Interval{5, 8}, Interval{0, 5}, RelMetBy},
		{Interval{5, 8}, Interval{0, 2}, RelAfter},
	}
	for _, c := range cases {
		if got := Relation(c.a, c.b); got != c.want {
			t.Errorf("Relation(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: Relation(a,b) is always the inverse of Relation(b,a).
func TestAllenInverseProperty(t *testing.T) {
	f := func(a0, al, b0, bl uint8) bool {
		a := Interval{int(a0), int(a0) + int(al%20) + 1}
		b := Interval{int(b0), int(b0) + int(bl%20) + 1}
		return Relation(a, b).Inverse() == Relation(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: exactly one Allen relation holds — Relation is a function and
// its result names are distinct for asymmetric pairs.
func TestAllenStringNames(t *testing.T) {
	seen := map[string]bool{}
	for r := RelBefore; r <= RelAfter; r++ {
		s := r.String()
		if seen[s] {
			t.Fatalf("duplicate relation name %q", s)
		}
		seen[s] = true
	}
	if AllenRelation(99).String() == "" {
		t.Fatal("out-of-range relation has empty name")
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
	m.AddFeature(FeatureValue{VideoID: vid, Frame: 0, Name: "entropy", Value: 4.2})
	return m
}

func TestMetaIndexRoundTripQueries(t *testing.T) {
	m := buildIndex(t)

	vids, err := m.Videos()
	if err != nil || len(vids) != 2 {
		t.Fatalf("Videos = %v, %v", vids, err)
	}
	v, err := m.VideoByName("final-2001")
	if err != nil || v.Frames != 500 {
		t.Fatalf("VideoByName = %+v, %v", v, err)
	}
	if _, err := m.VideoByName("ghost"); err == nil {
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
	tennis, err := m.SegmentsByClass("tennis")
	if err != nil || len(tennis) != 2 {
		t.Fatalf("SegmentsByClass = %v, %v", tennis, err)
	}

	nets, err := m.EventsByKind("net-play")
	if err != nil || len(nets) != 2 {
		t.Fatalf("EventsByKind = %v, %v", nets, err)
	}
	evs, err := m.EventsOf(v.ID)
	if err != nil || len(evs) != 2 {
		t.Fatalf("EventsOf = %v, %v", evs, err)
	}

	scenes, err := m.Scenes("net-play")
	if err != nil || len(scenes) != 2 {
		t.Fatalf("Scenes = %v, %v", scenes, err)
	}
	if scenes[0].Video.Name == "" || scenes[0].Event.Kind != "net-play" {
		t.Fatalf("scene malformed: %+v", scenes[0])
	}

	objs, err := m.ObjectsIn(1)
	if err != nil || len(objs) != 1 || objs[0].Name != "player-near" {
		t.Fatalf("ObjectsIn = %v, %v", objs, err)
	}
	states, err := m.StatesOf(objs[0].ID)
	if err != nil || len(states) != 10 {
		t.Fatalf("StatesOf = %d states, %v", len(states), err)
	}
	if states[3].X != 6 || !states[3].Found {
		t.Fatalf("state 3 = %+v", states[3])
	}

	feats, err := m.FeaturesNamed("entropy")
	if err != nil || len(feats) != 1 || feats[0].Value != 4.2 {
		t.Fatalf("FeaturesNamed = %v, %v", feats, err)
	}

	st := m.Stats()
	if st.Videos != 2 || st.Segments != 3 || st.Events != 3 || st.States != 10 || st.Objects != 1 || st.Features != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestMetaIndexPersistence(t *testing.T) {
	m := buildIndex(t)
	var buf bytes.Buffer
	if err := m.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DeserializeMetaIndex(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats() != m.Stats() {
		t.Fatalf("stats after load = %+v, want %+v", got.Stats(), m.Stats())
	}
	// Queries work after load.
	scenes, err := got.Scenes("net-play")
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
