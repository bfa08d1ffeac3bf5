package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// codecIndex hand-builds an index reaching the stream format's edges:
// negative, zero and MaxInt64-range IDs and ints, -0.0, NaN and ±Inf,
// empty and non-ASCII strings, nStates state rows (bool packing) and an
// empty features table.
func codecIndex(nStates int) *MetaIndex {
	m := NewMetaIndexAt(IDBase{Video: math.MaxInt64 - 2, Segment: -3, Object: -1})
	v1 := m.AddVideo(Video{Name: "", Path: "/päth/ü.svf", Width: -1, FPS: math.MaxInt64, Frames: math.MinInt64})
	v2 := m.AddVideo(Video{Name: "Roland-Garros — 東京 ✓", Width: 160, Height: 120, FPS: 25, Frames: 1})
	s1 := m.AddSegment(Segment{VideoID: v1, Interval: Interval{Start: -5}})
	m.AddSegment(Segment{VideoID: v2, Interval: Interval{End: math.MaxInt64}, Class: "tennis"})
	s3 := m.AddSegment(Segment{VideoID: -7, Interval: Interval{Start: 3, End: 4}, Class: "close-up"})
	o1 := m.AddObject(Object{VideoID: v2, SegmentID: s3, Name: "player-néar", Interval: Interval{Start: 1, End: 2}})
	o2 := m.AddObject(Object{VideoID: v1, Name: "", Interval: Interval{Start: math.MinInt64, End: -1}})
	floats := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0.1, -1e300, math.SmallestNonzeroFloat64}
	f := func(i int) float64 { return floats[i%len(floats)] }
	for i := 0; i < nStates; i++ {
		obj := o1
		if i%2 == 1 {
			obj = o2
		}
		m.AddState(ObjectState{
			ObjectID: obj, Frame: i - 3, Found: i%3 != 1,
			X: f(i), Y: f(i + 1), VX: f(i + 2), VY: f(i + 3), Area: i * 1000,
			BBox:        [4]int{-i, 0, math.MaxInt64 - i, math.MinInt64 + i},
			Orientation: f(i + 4), Eccentricity: f(i + 5),
		})
	}
	m.AddEvent(Event{VideoID: v1, SegmentID: s1, Kind: "net-play", Interval: Interval{Start: -1, End: 9}, ActorID: o1, Confidence: math.Copysign(0, -1)})
	m.AddEvent(Event{VideoID: v2, Kind: "", ActorID: o2, Confidence: math.NaN()})
	m.AddEvent(Event{VideoID: math.MaxInt64, SegmentID: -1, Kind: "rallye-été", Interval: Interval{End: math.MaxInt64}, Confidence: math.Inf(-1)})
	return m
}

// rowsOf renders every table of m; %v prints NaN and -0 distinctly, so
// equal renderings mean equal rows.
func rowsOf(m *MetaIndex) string {
	return fmt.Sprintf("%v", []any{m.videos, m.segments, m.features, m.objects, m.states, m.events})
}

func serialized(t testing.TB, m *MetaIndex) []byte {
	t.Helper()
	return encodeTables(nil, m.Freeze(), tables[:])
}

// TestMetaCodecGolden pins the stream format byte for byte: the hash was
// recorded from the column store this codec replaced, so meta.db files and
// WAL snapshots written before keep loading. Decoding what was encoded
// must give back the same rows.
func TestMetaCodecGolden(t *testing.T) {
	const golden = "fbff466bb19561e6fa22250692cdfcc75472f26eefcc5cc474518a1693d59240"
	h := sha256.New()
	for _, n := range []int{0, 7, 8, 9} {
		m := codecIndex(n)
		b := serialized(t, m)
		h.Write(b)
		back, err := DeserializeMetaIndex(b)
		if err != nil {
			t.Fatalf("%d states: %v", n, err)
		}
		if got, want := rowsOf(back), rowsOf(m); got != want {
			t.Fatalf("%d states: decoded rows\n%s\nwant\n%s", n, got, want)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("meta-index stream bytes changed: sha256 %s, want %s", got, golden)
	}
}

// TestMetaCodecProperty: arbitrary state and feature rows survive an
// encode/decode cycle, and the decoded index encodes to the same bytes.
func TestMetaCodecProperty(t *testing.T) {
	f := func(ids []int64, flts []float64, strs []string, bls []bool) bool {
		m, _ := NewMetaIndex()
		for i, id := range ids {
			st := ObjectState{ObjectID: id, Frame: int(id >> 1)}
			if i < len(flts) {
				st.X, st.Eccentricity = flts[i], -flts[i]
			}
			if i < len(bls) {
				st.Found = bls[i]
			}
			m.AddState(st)
		}
		for i, s := range strs {
			m.features = append(m.features, FeatureValue{VideoID: int64(i), Name: s, Value: float64(len(s))})
		}
		b := serialized(t, m)
		back, err := DeserializeMetaIndex(b)
		return err == nil && rowsOf(back) == rowsOf(m) && bytes.Equal(serialized(t, back), b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// wantRejected fails t for every case that decodes, or that is the valid
// stream itself.
func wantRejected(t *testing.T, valid []byte, cases map[string][]byte) {
	t.Helper()
	for name, b := range cases {
		if bytes.Equal(b, valid) {
			t.Fatalf("%s: the case leaves the stream valid", name)
		}
		if got, err := DeserializeMetaIndex(b); err == nil || got != nil {
			t.Errorf("%s: decoded (%v, %v), want an error", name, got != nil, err)
		}
	}
}

// rejectsIndex is the stream the reject tests mutate: every table holds rows.
func rejectsIndex() *MetaIndex {
	m := codecIndex(9)
	m.features = append(m.features, FeatureValue{VideoID: 1, Name: "final", Value: 1})
	return m
}

// encodeAs writes m's stream through a reshaped copy of the table list.
func encodeAs(m *MetaIndex, reshape func([]tableCodec) []tableCodec) []byte {
	return encodeTables(nil, m.Freeze(), reshape(append([]tableCodec(nil), tables[:]...)))
}

// TestDeserializeRoundTrip: a decoded index encodes back to the bytes it
// was decoded from, and its reads answer from the decoded rows.
func TestDeserializeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 7, 8, 9} {
		b := serialized(t, codecIndex(n))
		back, err := DeserializeMetaIndex(b)
		if err != nil {
			t.Fatalf("%d states: %v", n, err)
		}
		if again := serialized(t, back); !bytes.Equal(again, b) {
			t.Fatalf("%d states: re-encoding changed the stream bytes", n)
		}
		if back.states.n != n {
			t.Fatalf("%d states: decoded %d state rows", n, back.states.n)
		}
		if scenes, err := back.Freeze().Scenes("rallye-été"); err != nil || len(scenes) != 1 {
			t.Fatalf("%d states: post-load lookup = %v, %v", n, scenes, err)
		}
	}
}

// TestPersistenceEmptyTable: an index whose tables are all empty, and one
// whose only empty table is features, round-trip to the same bytes.
func TestPersistenceEmptyTable(t *testing.T) {
	for name, m := range map[string]*MetaIndex{"all-empty": {}, "features-empty": codecIndex(3)} {
		b := serialized(t, m)
		back, err := DeserializeMetaIndex(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(back.features) != 0 || rowsOf(back) != rowsOf(m) {
			t.Fatalf("%s: decoded rows\n%s\nwant\n%s", name, rowsOf(back), rowsOf(m))
		}
		if !bytes.Equal(serialized(t, back), b) {
			t.Fatalf("%s: re-encoding changed the stream bytes", name)
		}
	}
}

// TestPersistenceRejectsGarbage: streams that are not meta-index streams
// at all fail to decode.
func TestPersistenceRejectsGarbage(t *testing.T) {
	wantRejected(t, serialized(t, rejectsIndex()), map[string][]byte{
		"bad-magic":          []byte("XXXX junk"),
		"empty-stream":       nil,
		"good-magic-garbage": []byte(streamMagic + "trash"),
	})
}

// TestDeserializeHostileCounts: a row count or string length claiming more
// than the bytes left fails fast instead of allocating for the claim.
func TestDeserializeHostileCounts(t *testing.T) {
	valid := serialized(t, rejectsIndex())
	// In a stream whose only rows are videos, the videos row count is the
	// last byte of the all-empty stream's length.
	empty := serialized(t, &MetaIndex{})
	two := &MetaIndex{}
	two.AddVideo(Video{Name: "a"})
	two.AddVideo(Video{Name: "b"})
	rowCountPastEnd := serialized(t, two)
	rowCountPastEnd[len(empty)-1]++
	wantRejected(t, valid, map[string][]byte{
		"row-count-past-end":     rowCountPastEnd,
		"huge-row-count":         append(append([]byte(nil), empty[:len(empty)-1]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
		"string-length-past-end": bytes.Replace(valid, []byte("\x05final"), []byte("\xff\xff\xff\xff\x0ffinal"), 1),
	})
}

// TestDeserializeDuplicateTable: a table written twice is rejected rather
// than silently collapsed.
func TestDeserializeDuplicateTable(t *testing.T) {
	m := rejectsIndex()
	wantRejected(t, serialized(t, m), map[string][]byte{
		"duplicated-table": encodeAs(m, func(ts []tableCodec) []tableCodec { ts[1] = ts[0]; return ts }),
	})
}

// TestMetaStreamRejects: a stream the encoder would not write fails to
// decode with an error — never a panic, never a partial index.
func TestMetaStreamRejects(t *testing.T) {
	m := rejectsIndex()
	valid := serialized(t, m)
	encode := func(reshape func([]tableCodec) []tableCodec) []byte { return encodeAs(m, reshape) }
	notes := *tables[0].(*table[Event])
	notes.name = "notes"
	cases := map[string][]byte{
		"missing-table":       encode(func(ts []tableCodec) []tableCodec { return ts[:5] }),
		"extra-table":         encode(func(ts []tableCodec) []tableCodec { return append(ts, &notes) }),
		"out-of-order-tables": encode(func(ts []tableCodec) []tableCodec { ts[0], ts[1] = ts[1], ts[0]; return ts }),
		"truncated-columns":   encode(reshapeVideos(func(c []column[Video]) []column[Video] { return c[:2] })),
		"retyped-columns":     encode(reshapeVideos(func(c []column[Video]) []column[Video] { c[2].field = c[3].field; return c })),
		"reordered-columns":   encode(reshapeVideos(func(c []column[Video]) []column[Video] { c[3], c[4] = c[4], c[3]; return c })),
		"trailing-bytes":      append(append([]byte(nil), valid...), 0),
	}
	for i := range valid {
		cases[fmt.Sprintf("truncated-at-%d", i)] = valid[:i]
	}
	wantRejected(t, valid, cases)
}

// TestLookupOnEmptyIndex: every lookup on an empty index answers an empty,
// non-nil slice.
func TestLookupOnEmptyIndex(t *testing.T) {
	b, _ := NewMetaIndex()
	m := b.Freeze()
	segs, _ := m.SegmentsOf(1)
	scenes, _ := m.Scenes("rally")
	scenesRef, _ := m.ScenesReference("rally")
	for name, got := range map[string]any{
		"SegmentsOf": segs, "Scenes": scenes, "ScenesReference": scenesRef,
	} {
		if v := reflect.ValueOf(got); v.IsNil() || v.Len() != 0 {
			t.Errorf("%s on an empty index = %#v, want an empty slice", name, got)
		}
	}
}

// TestLookupFullScan: each lookup finds every row holding its key and
// nothing for a key no row holds.
func TestLookupFullScan(t *testing.T) {
	m, _ := NewMetaIndex()
	v1, v2 := m.AddVideo(Video{Name: "a"}), m.AddVideo(Video{Name: "b"})
	for i, c := range []string{"tennis", "close-up", "tennis"} {
		seg := m.AddSegment(Segment{VideoID: v1, Class: c})
		m.AddEvent(Event{VideoID: v1, SegmentID: seg, Kind: []string{"rally", "net-play"}[i%2]})
	}
	m.AddSegment(Segment{VideoID: v2, Class: "audience"})
	p := m.Freeze()
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"ScenesReference(rally)", count(p.ScenesReference("rally")), 2},
		{"ScenesReference(absent)", count(p.ScenesReference("absent")), 0},
		{"SegmentsOf(v1)", count(p.SegmentsOf(v1)), 3},
		{"SegmentsOf(absent)", count(p.SegmentsOf(99)), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s found %d rows, want %d", c.name, c.got, c.want)
		}
	}
}

// count is the number of rows a lookup answered, or -1 on an error.
func count[T any](rows []T, err error) int {
	if err != nil {
		return -1
	}
	return len(rows)
}

// TestLookupRowOrder: every lookup answers in ascending row order, over
// rows of several videos appended interleaved.
func TestLookupRowOrder(t *testing.T) {
	t.Run("interleaved-videos", func(t *testing.T) {
		m, _ := NewMetaIndex()
		v := []int64{m.AddVideo(Video{Name: "a"}), m.AddVideo(Video{Name: "b"}), m.AddVideo(Video{Name: "c"})}
		order := []int{0, 1, 0, 2, 0, 1, 0}
		var segs []int64
		for i, k := range order {
			seg := m.AddSegment(Segment{VideoID: v[k], Class: []string{"tennis", "close-up"}[i%2]})
			m.AddEvent(Event{VideoID: v[k], SegmentID: seg, Kind: "rally"})
			if k == 0 {
				segs = append(segs, seg)
			}
		}
		ids := func(n int, id func(int) int64) []int64 {
			out := make([]int64, n)
			for i := range out {
				out[i] = id(i)
			}
			return out
		}
		p := m.Freeze()
		gotSegs, _ := p.SegmentsOf(v[0])
		gotKind, _ := p.ScenesReference("rally")
		for _, c := range []struct {
			name      string
			got, want []int64
		}{
			{"SegmentsOf", ids(len(gotSegs), func(i int) int64 { return gotSegs[i].ID }), segs},
			{"ScenesReference", ids(len(gotKind), func(i int) int64 { return gotKind[i].Event.ID }), []int64{1, 2, 3, 4, 5, 6, 7}},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
			}
		}
	})
}
