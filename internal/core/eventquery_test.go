package core

import "testing"

// eventFixture builds an index with a known temporal event layout:
//
//	video 1: rally [0,100), net-play [40,60) (during), service [100,120)
//	         (met-by rally), rally [150,200)
//	video 2: net-play [0,50) — unrelated video
func eventFixture(t *testing.T) *MetaIndex {
	t.Helper()
	m, err := NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	v1 := m.AddVideo(Video{Name: "a", Frames: 300})
	v2 := m.AddVideo(Video{Name: "b", Frames: 100})
	s1 := m.AddSegment(Segment{VideoID: v1, Interval: Interval{0, 300}, Class: "tennis"})
	s2 := m.AddSegment(Segment{VideoID: v2, Interval: Interval{0, 100}, Class: "tennis"})
	add := func(vid, seg int64, kind string, start, end int) {
		m.AddEvent(Event{VideoID: vid, SegmentID: seg, Kind: kind, Interval: Interval{start, end}})
	}
	add(v1, s1, "rally", 0, 100)
	add(v1, s1, "net-play", 40, 60)
	add(v1, s1, "service", 100, 120)
	add(v1, s1, "rally", 150, 200)
	add(v2, s2, "net-play", 0, 50)
	return m
}

func TestEventsRelatedDuring(t *testing.T) {
	m := eventFixture(t)
	pairs, err := m.EventsRelated("net-play", "rally", RelDuring)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Fatalf("got %d pairs, want 1: %+v", len(pairs), pairs)
	}
	p := pairs[0]
	if p.A.Kind != "net-play" || p.B.Kind != "rally" || p.Rel != RelDuring {
		t.Fatalf("pair = %+v", p)
	}
	if p.A.Start != 40 || p.B.End != 100 {
		t.Fatalf("wrong events paired: %+v", p)
	}
}

func TestEventsRelatedCrossVideoExcluded(t *testing.T) {
	m := eventFixture(t)
	// Video 2's net-play [0,50) would be "during" video 1's rally [0,100)
	// if videos were conflated; it must not appear.
	pairs, _ := m.EventsRelated("net-play", "rally", RelDuring, RelStarts)
	for _, p := range pairs {
		if p.A.VideoID != p.B.VideoID {
			t.Fatalf("cross-video pair leaked: %+v", p)
		}
	}
}

func TestEventsRelatedAllRelations(t *testing.T) {
	m := eventFixture(t)
	pairs, err := m.EventsRelated("rally", "service")
	if err != nil {
		t.Fatal(err)
	}
	// rally[0,100) meets service[100,120); rally[150,200) is after it.
	rels := map[AllenRelation]int{}
	for _, p := range pairs {
		rels[p.Rel]++
	}
	if rels[RelMeets] != 1 || rels[RelAfter] != 1 || len(pairs) != 2 {
		t.Fatalf("relations = %v", rels)
	}
}

func TestEventsRelatedSelfKindNoSelfPair(t *testing.T) {
	m := eventFixture(t)
	pairs, err := m.EventsRelated("rally", "rally")
	if err != nil {
		t.Fatal(err)
	}
	// Two rallies in video 1: (a,b) and (b,a) but never (a,a).
	if len(pairs) != 2 {
		t.Fatalf("got %d rally pairs, want 2: %+v", len(pairs), pairs)
	}
	for _, p := range pairs {
		if p.A.ID == p.B.ID {
			t.Fatalf("self pair: %+v", p)
		}
	}
}

func TestEventsFollowing(t *testing.T) {
	m := eventFixture(t)
	// service[100,120) followed by rally[150,200) with gap 30.
	pairs, err := m.EventsFollowing("service", "rally", 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].B.Start != 150 {
		t.Fatalf("pairs = %+v", pairs)
	}
	// Tighter gap excludes it.
	pairs, _ = m.EventsFollowing("service", "rally", 10)
	if len(pairs) != 0 {
		t.Fatalf("gap 10 pairs = %+v", pairs)
	}
	// rally[0,100) meets service[100,120): gap 0.
	pairs, _ = m.EventsFollowing("rally", "service", 0)
	if len(pairs) != 1 {
		t.Fatalf("meets pairs = %+v", pairs)
	}
	if _, err := m.EventsFollowing("a", "b", -1); err == nil {
		t.Fatal("negative gap accepted")
	}
}

func TestEventsRelatedUnknownKind(t *testing.T) {
	m := eventFixture(t)
	pairs, err := m.EventsRelated("tiebreak", "rally")
	if err != nil || len(pairs) != 0 {
		t.Fatalf("unknown kind: %v, %v", pairs, err)
	}
}
