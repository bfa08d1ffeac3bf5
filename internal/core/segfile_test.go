package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/segfile"
)

func coreSegfileBytes(t testing.TB, parts []*Part, metas []SegmentMeta, gen int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSegfile(&buf, parts, metas, gen); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openBytes opens in-memory segfile bytes the way OpenSegmentedFile opens
// the mapping: a container reader handed to the meta-index opener.
func openBytes(data []byte) (*SegmentedIndex, error) {
	r, err := segfile.NewReader(data)
	if err != nil {
		return nil, err
	}
	return openSegfileReader(r)
}

// compareSegViews drives every SegmentedIndex read, and the per-partition
// reads the engine build makes, through both views and requires identical
// answers — the byte-identical invariant at the core layer.
func compareSegViews(t *testing.T, want, got *SegmentedIndex) {
	t.Helper()
	if want.Stats() != got.Stats() {
		t.Fatalf("stats %+v vs %+v", want.Stats(), got.Stats())
	}
	if !reflect.DeepEqual(want.Metas(), got.Metas()) {
		t.Fatalf("metas %+v vs %+v", want.Metas(), got.Metas())
	}
	wparts, err1 := want.Parts()
	gparts, err2 := got.Parts()
	if err1 != nil || err2 != nil || len(wparts) != len(gparts) {
		t.Fatalf("parts: %d/%v vs %d/%v", len(wparts), err1, len(gparts), err2)
	}
	for i, wp := range wparts {
		if !reflect.DeepEqual(wp.videos, gparts[i].videos) {
			t.Fatalf("segment %d: videos diverge: %v vs %v", i, wp.videos, gparts[i].videos)
		}
		if !reflect.DeepEqual(wp.events, gparts[i].events) {
			t.Fatalf("segment %d: events diverge", i)
		}
		for _, v := range wp.videos {
			ws, _ := want.SegmentsOf(v.ID)
			gs, _ := got.SegmentsOf(v.ID)
			if !reflect.DeepEqual(ws, gs) {
				t.Fatalf("segments of %d diverge", v.ID)
			}
		}
	}
	for _, kind := range []string{"net-play", "rally", "service", "absent"} {
		wsc, _ := want.Scenes(kind)
		gsc, _ := got.Scenes(kind)
		if !reflect.DeepEqual(wsc, gsc) {
			t.Fatalf("scenes kind %q diverge", kind)
		}
	}
}

func TestSegfileLibraryParity(t *testing.T) {
	for _, sizes := range [][]int{{7}, {4, 3}, {2, 2, 2, 1}} {
		t.Run(fmt.Sprintf("sizes=%v", sizes), func(t *testing.T) {
			si, parts, metas := buildSegMeta(t, sizes)
			data := coreSegfileBytes(t, parts, metas, 5)
			lazy, err := openBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			// Manifest-only reads must not hydrate.
			_ = lazy.Stats()
			_ = lazy.Metas()
			for i := range sizes {
				if _, err := lazy.PartStats(i); err != nil {
					t.Fatal(err)
				}
				if lazy.Hydrated(i) {
					t.Fatalf("segment %d hydrated by manifest-only reads", i)
				}
			}
			if lazy.Generation() != 5 {
				t.Fatalf("generation = %d", lazy.Generation())
			}
			compareSegViews(t, si, lazy)
			// Full hydration reproduces each partition's bytes exactly.
			hyd, err := lazy.Parts()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serializeAll(t, parts...), serializeAll(t, hyd...)) {
				t.Fatal("hydrated partitions serialize differently")
			}
			for i := range parts {
				if hyd[i].IDState() != parts[i].IDState() {
					t.Fatalf("segment %d ID state %+v vs %+v", i, hyd[i].IDState(), parts[i].IDState())
				}
			}
		})
	}
}

func TestSegfileLibraryLazyHydration(t *testing.T) {
	_, parts, metas := buildSegMeta(t, []int{2, 2, 2})
	lazy, err := openBytes(coreSegfileBytes(t, parts, metas, 1))
	if err != nil {
		t.Fatal(err)
	}
	// A scenes read over one ordinal hydrates exactly that segment.
	if _, err := lazy.PartScenes(1, "rally"); err != nil {
		t.Fatal(err)
	}
	if lazy.Hydrated(0) || !lazy.Hydrated(1) || lazy.Hydrated(2) {
		t.Fatalf("hydration state = %v %v %v", lazy.Hydrated(0), lazy.Hydrated(1), lazy.Hydrated(2))
	}
	// An ID-routed read hydrates only the owning partition.
	vids := parts[2].videos
	if len(vids) == 0 {
		t.Fatal("no seed videos")
	}
	if _, err := lazy.SegmentsOf(vids[0].ID); err != nil {
		t.Fatal(err)
	}
	if lazy.Hydrated(0) {
		t.Fatal("ID-routed read hydrated segment 0")
	}
	if !lazy.Hydrated(2) {
		t.Fatal("ID-routed read missed segment 2")
	}
}

func TestSegfileLibraryFile(t *testing.T) {
	si, parts, metas := buildSegMeta(t, []int{3, 2})
	path := filepath.Join(t.TempDir(), "lib.segf")
	var buf bytes.Buffer
	if err := WriteSegfile(&buf, parts, metas, 2); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	view, closer, err := OpenSegmentedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	compareSegViews(t, si, view)
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := closer.Close(); err != nil {
		t.Fatal("second close:", err)
	}
}

func TestSegfileWriteDeterministicCore(t *testing.T) {
	_, parts, metas := buildSegMeta(t, []int{2, 3})
	a := coreSegfileBytes(t, parts, metas, 9)
	b := coreSegfileBytes(t, parts, metas, 9)
	if !bytes.Equal(a, b) {
		t.Fatal("two writes produced different bytes")
	}
	// Golden: the bytes PR 15 wrote for these partitions. A saved library
	// must keep loading, so the layout may not drift silently.
	const golden = "6488d45a7fe47a620e4341505e21176e1a8fa107ec8cb3c3467d2ed016634330"
	if got := fmt.Sprintf("%x", sha256.Sum256(a)); got != golden {
		t.Fatalf("meta-index segfile bytes changed: sha256 %s, want %s", got, golden)
	}
}

func TestSegfileLibraryHostile(t *testing.T) {
	_, parts, metas := buildSegMeta(t, []int{2, 2})
	data := coreSegfileBytes(t, parts, metas, 1)
	for _, n := range []int{0, 16, 100, len(data) / 2, len(data) - 1} {
		if _, err := openBytes(data[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	// Corrupting a segment block passes open (manifest intact) but fails
	// at hydration with an error, not a panic.
	lib, err := openBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	r, err := segfile.NewReader(data) // a second window onto the bytes lib aliases
	if err != nil {
		t.Fatal(err)
	}
	blk, ok := r.Block("core/seg/1")
	if !ok || len(blk) == 0 {
		t.Fatal("no segment block")
	}
	blk[len(blk)/2] ^= 0xFF
	if _, err := lib.PartScenes(1, "rally"); err == nil {
		t.Fatal("corrupt segment block hydrated without error")
	}
	// Segment 0 is untouched and still loads.
	if _, err := lib.PartScenes(0, "rally"); err != nil {
		t.Fatal(err)
	}
	// Byte flips anywhere must never panic.
	for i := 0; i < len(data); i += 11 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xA5
		l2, err := openBytes(mut)
		if err != nil {
			continue
		}
		for ord := 0; ord < l2.NumSegments(); ord++ {
			_, _ = l2.PartScenes(ord, "rally")
		}
	}
}

// misshapenSegfile is a checksum-valid one-segment segfile holding one
// video, with its stream encoded under the declarations reshape returns:
// it passes every container check and the manifest's row counts, so only
// the stream decoder stands between it and a hydrated index.
func misshapenSegfile(tb testing.TB, reshape func([]tableCodec) []tableCodec) []byte {
	tb.Helper()
	m, err := NewMetaIndex()
	if err != nil {
		tb.Fatal(err)
	}
	m.AddVideo(Video{Name: "final", Path: "final.svf", Width: 1, Height: 1, FPS: 1, Frames: 1})
	var buf bytes.Buffer
	if err := writeSegfile(&buf, []*Part{m.Freeze()}, []SegmentMeta{{ID: 1}}, 1, reshape(append([]tableCodec(nil), tables[:]...))); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// reshapeVideos returns a reshape that changes the videos table's columns.
func reshapeVideos(f func([]column[Video]) []column[Video]) func([]tableCodec) []tableCodec {
	return func(ts []tableCodec) []tableCodec {
		for i, t := range ts {
			if v, ok := t.(*table[Video]); ok {
				w := *v
				w.cols = f(append([]column[Video](nil), v.cols...))
				ts[i] = &w
			}
		}
		return ts
	}
}

// TestSegfileMisshapenTables: a segment whose videos table does not have
// the declared columns — too few, a wrong type, a wrong order — fails the
// first read with an error naming the table instead of decoding garbage.
func TestSegfileMisshapenTables(t *testing.T) {
	for _, tc := range []struct {
		name    string
		reshape func([]column[Video]) []column[Video]
	}{
		{"truncated", func(c []column[Video]) []column[Video] { return c[:2] }},
		{"retyped", func(c []column[Video]) []column[Video] { c[2].field = c[3].field; return c }},
		{"reordered", func(c []column[Video]) []column[Video] { c[3], c[4] = c[4], c[3]; return c }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lib, err := openBytes(misshapenSegfile(t, reshapeVideos(tc.reshape)))
			if err != nil {
				t.Fatal(err) // the manifest is sound; decoding is lazy
			}
			if _, err := lib.Scenes("rally"); err == nil || !strings.Contains(err.Error(), `"videos"`) {
				t.Fatalf("Scenes over a misshapen videos table: err = %v", err)
			}
			if _, err := lib.Parts(); err == nil {
				t.Fatal("Parts over a misshapen videos table succeeded")
			}
		})
	}
}
