package core

import (
	"bytes"
	"fmt"
	"testing"
)

// fillVideo materializes one synthetic video (video + segment + events)
// into idx, the way fde.IndexResult would, deterministically from seq.
func fillVideo(t testing.TB, idx *MetaIndex, seq int) {
	t.Helper()
	vid := idx.AddVideo(Video{
		Name: fmt.Sprintf("clip-%02d", seq), Width: 160, Height: 120,
		FPS: 25, Frames: 300 + seq,
	})
	seg := idx.AddSegment(Segment{
		VideoID: vid, Interval: Interval{Start: 0, End: 200}, Class: "tennis",
	})
	obj := idx.AddObject(Object{
		VideoID: vid, SegmentID: seg, Name: "player",
		Interval: Interval{Start: 0, End: 100},
	})
	for f := 0; f < 3; f++ {
		idx.AddState(ObjectState{ObjectID: obj, Frame: f, Found: true, X: float64(f)})
	}
	idx.features = append(idx.features, FeatureValue{VideoID: vid, Frame: 0, Name: "netline", Value: 0.5})
	kinds := []string{"net-play", "rally", "service"}
	for e := 0; e < 2+seq%2; e++ {
		k := kinds[(seq+e)%len(kinds)]
		idx.AddEvent(Event{
			VideoID: vid, SegmentID: seg, Kind: k, ActorID: obj,
			Interval:   Interval{Start: 10 * e, End: 10*e + 8},
			Confidence: 0.5 + float64(e)/10,
		})
	}
}

// buildMonoMeta indexes n videos into one monolithic Part.
func buildMonoMeta(t *testing.T, n int) *Part {
	t.Helper()
	m, err := NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		fillVideo(t, m, i)
	}
	return m.Freeze()
}

// buildSegMeta splits the same n videos across partitions of the given
// sizes, each partition seeded at the previous one's ID state.
func buildSegMeta(t testing.TB, sizes []int) (*SegmentedIndex, []*Part, []SegmentMeta) {
	t.Helper()
	var parts []*Part
	var metas []SegmentMeta
	base := IDBase{}
	seq := 0
	for i, sz := range sizes {
		p := NewMetaIndexAt(base)
		for v := 0; v < sz; v++ {
			fillVideo(t, p, seq)
			seq++
		}
		parts = append(parts, p.Freeze())
		metas = append(metas, SegmentMeta{ID: int64(i + 1), Base: base})
		base = p.IDState()
	}
	si, err := NewSegmentedIndex(parts, metas, int64(len(sizes)))
	if err != nil {
		t.Fatal(err)
	}
	return si, parts, metas
}

// serializeAll renders every partition's database, concatenated — the
// byte-level identity check between builds.
func serializeAll(t *testing.T, parts ...*Part) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, p := range parts {
		buf.Write(encodeTables(nil, p, tables[:]))
	}
	return buf.Bytes()
}

// TestSegmentedMatchesMonolithic locks the partitioning invariant: the
// same videos split across partitions answer every read exactly like the
// monolithic index.
func TestSegmentedMatchesMonolithic(t *testing.T) {
	const n = 7
	mono := buildMonoMeta(t, n)
	for _, sizes := range [][]int{{7}, {4, 3}, {2, 2, 2, 1}} {
		si, _, _ := buildSegMeta(t, sizes)
		name := fmt.Sprintf("sizes=%v", sizes)
		t.Run(name, func(t *testing.T) {
			if si.Stats() != mono.Stats() {
				t.Fatalf("stats %+v vs %+v", si.Stats(), mono.Stats())
			}
			wantV := mono.videos
			parts, err := si.Parts()
			if err != nil {
				t.Fatal(err)
			}
			var gotV []Video
			for _, p := range parts {
				gotV = append(gotV, p.videos...)
			}
			if fmt.Sprint(wantV) != fmt.Sprint(gotV) {
				t.Fatalf("videos diverge:\n%v\n%v", wantV, gotV)
			}
			for _, kind := range []string{"net-play", "rally", "service", "absent"} {
				want, err := mono.Scenes(kind)
				if err != nil {
					t.Fatal(err)
				}
				got, err := si.Scenes(kind)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(want) != fmt.Sprint(got) {
					t.Fatalf("scenes(%q) diverge:\n%v\n%v", kind, want, got)
				}
			}
			for _, v := range wantV {
				wantS, _ := mono.SegmentsOf(v.ID)
				gotS, err := si.SegmentsOf(v.ID)
				if err != nil || fmt.Sprint(wantS) != fmt.Sprint(gotS) {
					t.Fatalf("segments of %d diverge (%v)", v.ID, err)
				}
			}
		})
	}
}

// TestMergeSegmentRange locks compaction: merging all partitions yields a
// partition whose serialized bytes equal the monolithic build, and merging
// a middle run preserves every query answer.
func TestMergeSegmentRange(t *testing.T) {
	const n = 7
	mono := buildMonoMeta(t, n)
	si, parts, metas := buildSegMeta(t, []int{2, 2, 2, 1})

	merged, meta, err := MergeSegmentRange(parts, metas, 0, len(parts))
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != 1 || meta.Base != (IDBase{}) {
		t.Fatalf("merged meta %+v", meta)
	}
	if got, want := serializeAll(t, merged.Freeze()), serializeAll(t, mono); !bytes.Equal(got, want) {
		t.Fatal("full compaction is not byte-identical to the monolithic build")
	}
	if merged.IDState() != mono.IDState() {
		t.Fatalf("ID state %+v vs %+v", merged.IDState(), mono.IDState())
	}

	// Partial compaction: merge partitions 1..3 of four, keep 0 and 3.
	mid, midMeta, err := MergeSegmentRange(parts, metas, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	si2, err := NewSegmentedIndex(
		[]*Part{parts[0], mid.Freeze(), parts[3]},
		[]SegmentMeta{metas[0], midMeta, metas[3]}, si.Generation()+1)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"net-play", "rally", "service"} {
		want, _ := si.Scenes(kind)
		got, err := si2.Scenes(kind)
		if err != nil || fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("scenes(%q) changed by compaction (%v)", kind, err)
		}
	}
}

// TestMergeSegmentRangeRejectsBaseGap: compaction keeps every ID, so a
// range whose manifest bases do not chain — a part starting past where the
// one before it ended, in any of the four ID spaces — cannot be merged
// without renumbering rows, and must fail instead.
func TestMergeSegmentRangeRejectsBaseGap(t *testing.T) {
	for _, gap := range []struct {
		space string
		bump  func(*IDBase)
	}{
		{"video", func(b *IDBase) { b.Video += 3 }},
		{"segment", func(b *IDBase) { b.Segment += 3 }},
		{"object", func(b *IDBase) { b.Object += 3 }},
		{"event", func(b *IDBase) { b.Event += 3 }},
	} {
		t.Run(gap.space, func(t *testing.T) {
			_, parts, metas := buildSegMeta(t, []int{2, 1})
			base := parts[1].IDState()
			gap.bump(&base)
			p := NewMetaIndexAt(base)
			fillVideo(t, p, 3)
			parts = append(parts, p.Freeze())
			metas = append(metas, SegmentMeta{ID: 3, Base: base})
			if _, _, err := MergeSegmentRange(parts, metas, 1, 3); err == nil {
				t.Fatalf("merged across a gap in %s IDs", gap.space)
			}
			// The chained prefix still merges.
			if _, _, err := MergeSegmentRange(parts, metas, 0, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
}
