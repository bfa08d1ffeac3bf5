package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// materializeVideo writes one deterministic synthetic video into idx,
// exercising every table.
func materializeVideo(idx *MetaIndex, j int) {
	vid := idx.AddVideo(Video{
		Name: fmt.Sprintf("v%02d", j), Path: fmt.Sprintf("v%02d.svf", j),
		Width: 32, Height: 24, FPS: 25, Frames: 100 + j,
	})
	sid := idx.AddSegment(Segment{
		VideoID: vid, Interval: Interval{Start: 0, End: 50 + j}, Class: "tennis",
	})
	oid := idx.AddObject(Object{
		VideoID: vid, SegmentID: sid, Name: "player-near",
		Interval: Interval{Start: 0, End: 50 + j},
	})
	for f := 0; f < 3; f++ {
		idx.AddState(ObjectState{
			ObjectID: oid, Frame: f, Found: true,
			X: float64(j) + float64(f)/10, Y: float64(j),
			Area: 10 * j, BBox: [4]int{j, j, j + 4, j + 6},
		})
	}
	idx.features = append(idx.features, FeatureValue{
		VideoID: vid, Frame: j, Name: "entropy", Value: float64(j) / 7,
	})
	idx.AddEvent(Event{
		VideoID: vid, SegmentID: sid, Kind: "rally",
		Interval: Interval{Start: 1, End: 40}, ActorID: oid, Confidence: 0.9,
	})
}

// TestAppendMatchesSequential is the byte-identity contract of the batch
// ingest merge: videos built concurrently, each in a private index, and
// appended from base zero in sequence order reproduce the sequential index
// exactly.
func TestAppendMatchesSequential(t *testing.T) {
	const n = 7
	seq, err := NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		materializeVideo(seq, j)
	}
	want := serialized(t, seq)

	parts := make([]*MetaIndex, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for j := n - 1; j >= 0; j-- {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			if parts[j], errs[j] = NewMetaIndex(); errs[j] == nil {
				materializeVideo(parts[j], j)
			}
		}(j)
	}
	wg.Wait()
	dst, err := NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	for j := range parts {
		if errs[j] != nil {
			t.Fatalf("build %d: %v", j, errs[j])
		}
		dst.Append(parts[j].Freeze(), IDBase{})
	}
	if got := serialized(t, dst); !bytes.Equal(got, want) {
		t.Fatalf("merged serialization differs from sequential (%d vs %d bytes)", len(got), len(want))
	}
}

// TestAppendIntoExistingIndex merges into a non-empty destination: IDs
// continue from its counters and cross-row references are shifted with them.
func TestAppendIntoExistingIndex(t *testing.T) {
	dst, err := NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	materializeVideo(dst, 99)
	ids := map[int]int64{}
	for j := 0; j < 3; j++ {
		src, err := NewMetaIndex()
		if err != nil {
			t.Fatal(err)
		}
		materializeVideo(src, j)
		dst.Append(src.Freeze(), IDBase{})
		ids[j] = dst.IDState().Video
	}
	// Sequence order continues after the pre-existing video.
	for j := 0; j < 3; j++ {
		if ids[j] != int64(j+2) {
			t.Fatalf("seq %d got video ID %d, want %d", j, ids[j], j+2)
		}
		v, err := dst.Freeze().VideoByID(ids[j])
		if err != nil {
			t.Fatal(err)
		}
		if v.Name != fmt.Sprintf("v%02d", j) {
			t.Fatalf("seq %d merged as %q", j, v.Name)
		}
	}
	if st := dst.Stats(); st.Videos != 4 || st.Events != 4 {
		t.Fatalf("merged stats = %+v", st)
	}
	// Event actor/segment references were shifted into dst's ID space.
	evs := filter(dst.events, func(e *Event) bool { return e.VideoID == ids[2] })
	if len(evs) != 1 {
		t.Fatalf("events of merged video: %v", evs)
	}
	var objs []Object
	for _, o := range dst.objects {
		if o.SegmentID == evs[0].SegmentID {
			objs = append(objs, o)
		}
	}
	if len(objs) != 1 || objs[0].ID != evs[0].ActorID {
		t.Fatalf("actor remap broken: objs=%v ev=%+v", objs, evs[0])
	}
	// An event without an actor keeps actor 0 rather than gaining dst's
	// object offset.
	src, err := NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	src.AddEvent(Event{VideoID: 1, SegmentID: 1, Kind: "service"})
	dst.Append(src.Freeze(), IDBase{})
	if evs := dst.events[len(dst.events)-1:]; evs[0].Kind != "service" || evs[0].ActorID != 0 || evs[0].ID != 5 {
		t.Fatalf("actorless event appended as %+v", evs)
	}
}

// addStates adds object obj's states for frames from … to-1 to m, every
// third one coasted and every fifth one of no object.
func addStates(m *MetaIndex, obj int64, from, to int) {
	for f := from; f < to; f++ {
		id := obj
		if f%5 == 0 {
			id = 0
		}
		m.AddState(ObjectState{ObjectID: id, Frame: f, Found: f%3 != 0, X: float64(f) / 3, Area: -f, BBox: [4]int{f, -f, 2 * f, 1}})
	}
}

// TestStatesHeldInWireForm: the states table is held as the stream's own
// column bytes. A decoded partition holds exactly the stream's states bytes,
// in a copy; appending two partitions, fresh or decoded, gives the merged
// partition's stream byte for byte; and a builder that writes on after
// Freeze, into the found column's shared last byte, leaves the Part as
// frozen.
func TestStatesHeldInWireForm(t *testing.T) {
	build := func(halves ...int) *MetaIndex {
		m, _ := NewMetaIndex()
		for _, h := range halves {
			obj := m.AddObject(Object{Name: fmt.Sprint("player-", h)})
			addStates(m, obj, h*11, h*11+11+7*h)
		}
		return m
	}
	whole := serialized(t, build(0, 1))
	back, err := DeserializeMetaIndex(whole)
	if err != nil {
		t.Fatal(err)
	}
	held := statesTable.encode(nil, &back.tableSet)
	if !bytes.Contains(whole, held) {
		t.Fatal("the decoded states table is not the stream's states bytes")
	}
	n := 0
	for _, col := range back.states.cols {
		n += len(col)
	}
	if head := len(statesTable.encode(nil, &tableSet{})); n != len(held)-head {
		t.Fatalf("the decoded states columns hold %d bytes, the stream's states vectors %d", n, len(held)-head)
	}
	for i := range whole {
		whole[i] ^= 0xff
	}
	if !bytes.Equal(statesTable.encode(nil, &back.tableSet), held) {
		t.Fatal("the decoded states columns alias the stream")
	}
	for i := range whole {
		whole[i] ^= 0xff
	}

	second, _ := NewMetaIndex()
	addStates(second, second.AddObject(Object{Name: "player-1"}), 11, 29)
	for name, parts := range map[string][2]*MetaIndex{
		"fresh":   {build(0), second},
		"decoded": {mustDecode(t, serialized(t, build(0))), mustDecode(t, serialized(t, second))},
	} {
		dst, _ := NewMetaIndex()
		for _, p := range parts {
			dst.Append(p.Freeze(), IDBase{})
		}
		if got := serialized(t, dst); !bytes.Equal(got, whole) {
			t.Fatalf("%s: the appended partitions' stream differs from the merged partition's", name)
		}
	}

	for name, write := range map[string]func(m *MetaIndex){
		"AddState": func(m *MetaIndex) { addStates(m, 1, 11, 40) },
		"Append":   func(m *MetaIndex) { m.Append(second.Freeze(), IDBase{}) },
	} {
		m := build(0) // 11 states: the found column's last byte is partial
		p := m.Freeze()
		frozen := encodeTables(nil, p, tables[:])
		write(m)
		if !bytes.Equal(encodeTables(nil, p, tables[:]), frozen) {
			t.Fatalf("%s after Freeze changed the frozen Part", name)
		}
	}
}

func mustDecode(t *testing.T, b []byte) *MetaIndex {
	t.Helper()
	m, err := DeserializeMetaIndex(b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
