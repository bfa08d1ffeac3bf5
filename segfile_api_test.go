package repro

// End-to-end lock of the segfile persistence path: a library loaded from
// the memory-mapped zero-copy format answers every query form
// byte-identically to the heap-built library it was saved from — scene
// lookups, combined queries, keyword retrieval, paginated cursor walks —
// across 1-, 2-, and 3-segment corpora, through compaction replay, and
// under concurrent Search+Commit.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/segfile"
	"repro/internal/webspace"
)

// saveAndLoad persists lib with SaveIndex and maps it back with
// LoadLibraryFile.
func saveAndLoad(t *testing.T, lib *Library) *Library {
	t.Helper()
	var sf bytes.Buffer
	if err := lib.SaveIndex(&sf); err != nil {
		t.Fatal(err)
	}
	return loadSegfile(t, sf.Bytes())
}

// loadSegfile writes segfile bytes to a temporary file and maps it with
// LoadLibraryFile.
func loadSegfile(t *testing.T, data []byte) *Library {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lib.segf")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	lib, err := LoadLibraryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lib.Close() })
	return lib
}

// segmentBytes is a segment's stream encoding as SaveIndex writes it, framed
// alone in a one-segment segfile.
func segmentBytes(t testing.TB, m *core.Part) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteSegfile(&buf, []*core.Part{m}, []core.SegmentMeta{{ID: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newest is the library's newest segment, the one IndexBatch grows.
func newest(t testing.TB, lib *Library) *core.Part {
	t.Helper()
	parts, err := lib.View().Parts()
	if err != nil {
		t.Fatal(err)
	}
	return parts[len(parts)-1]
}

// TestOpenNotASegfile: every loader refuses input without the segfile magic
// with the one error that names what was opened and the remedy — never a
// column-store parse error, a bare mmap errno, or a panic.
func TestOpenNotASegfile(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		data []byte // nil: the path is a directory
	}{
		{"empty", []byte{}},
		{"short", []byte("DLS")},
		// How a retired column-store stream began: magic, table count, name.
		{"legacy-stream", []byte("CSDB\x06\x06videos")},
		{"directory", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name)
			if tc.data == nil {
				if err := os.Mkdir(path, 0o755); err != nil {
					t.Fatal(err)
				}
			} else if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, fileErr := LoadLibraryFile(path)
			_, _, viewErr := core.OpenSegmentedFile(path)
			for what, err := range map[string]error{"LoadLibraryFile": fileErr, "OpenSegmentedFile": viewErr} {
				if !errors.Is(err, core.ErrNotSegfile) {
					t.Fatalf("%s: err = %v, want ErrNotSegfile", what, err)
				}
				if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, "cobraindex") {
					t.Fatalf("%s: error %q names neither the path nor the remedy", what, msg)
				}
			}
		})
	}
	// A missing file stays a not-exist error (dlserve maps it to 404 on reload).
	if _, err := LoadLibraryFile(filepath.Join(dir, "absent")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want os.ErrNotExist", err)
	}
}

// TestCorruptSegmentFailsSceneReads: opening verifies only the manifest,
// so a segment block with one flipped byte passes LoadLibraryFile and its
// checksum failure surfaces where a read hydrates the segment — as the
// facade read's error, or as the error of a scene or scenes-joining query
// through a digital library, never a panic or an empty answer. Building the
// library reads no segment, so it succeeds, and a keyword query answers.
func TestCorruptSegmentFailsSceneReads(t *testing.T) {
	idx, err := core.NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	vid := idx.AddVideo(core.Video{Name: "final-2001", FPS: 25, Frames: 100})
	var buf bytes.Buffer
	if err := core.WriteSegfile(&buf, []*core.Part{idx.Freeze()}, []core.SegmentMeta{{ID: 1}}, 1); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r, err := segfile.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	blk, ok := r.Block("core/seg/0") // aliases data
	if !ok || len(blk) == 0 {
		t.Fatal("no segment block")
	}
	blk[len(blk)/2] ^= 0xFF
	lib := loadSegfile(t, data)
	if _, err := lib.View().Parts(); err == nil {
		t.Fatal("View().Parts() hydrated a segment that fails its checksum")
	}
	if _, err := lib.Scenes("rally"); err == nil {
		t.Fatal("Scenes read a segment that fails its checksum")
	}
	if _, err := lib.Segments(vid); err == nil {
		t.Fatal("Segments read a segment that fails its checksum")
	}
	site, err := GenerateSite(SiteConfig{Players: 8, YearStart: 2000, YearEnd: 2001, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dl, err := NewDigitalLibrary(site, lib)
	if err != nil {
		t.Fatalf("building over a corrupt segment: %v", err)
	}
	ctx := context.Background()
	for _, q := range []Query{
		{Scenes: "rally"},
		{Source: `find Final scenes "rally" via video`},
	} {
		rs, err := dl.Search(ctx, q)
		if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("%+v over a corrupt segment: %v, %v; want the checksum error", q, rs, err)
		}
	}
	if rs, err := dl.Search(ctx, Query{Keyword: "australian open final"}); err != nil || rs.Total == 0 {
		t.Fatalf("keyword query beside a corrupt segment: %v, %v", rs, err)
	}
}

// compareSearch requires dl and ref to answer q identically, unpaginated
// and via a cursor walk.
func compareSearch(t *testing.T, ref, dl *DigitalLibrary, q Query) {
	t.Helper()
	ctx := context.Background()
	want, werr := ref.Search(ctx, q)
	got, gerr := dl.Search(ctx, q)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%+v: err %v vs %v", q, werr, gerr)
	}
	if werr != nil {
		return
	}
	if !reflect.DeepEqual(want.Items, got.Items) || want.Total != got.Total {
		t.Fatalf("%+v: answers diverge (%d vs %d items)", q, len(want.Items), len(got.Items))
	}
	var walked []Item
	var cur Cursor
	for {
		page, err := dl.Search(ctx, q, WithLimit(2), WithCursor(cur))
		if err != nil {
			t.Fatal(err)
		}
		walked = append(walked, page.Items...)
		if page.Cursor == "" {
			break
		}
		cur = page.Cursor
	}
	if !reflect.DeepEqual(walked, want.Items) {
		t.Fatalf("%+v: paginated walk diverges", q)
	}
}

func TestSegfileLibraryMatchesHeap(t *testing.T) {
	vids := batchTestCorpus(t)
	jobs := batchJobs(vids)
	site := v2Site(t)
	for _, build := range []struct {
		name   string
		lib    *Library
		nparts int
	}{
		{"segs=1", buildSegmentedLib(t, jobs, len(jobs)), 1},
		{"segs=2", buildSegmentedLib(t, jobs, 3, 3), 2},
		{"segs=3", buildSegmentedLib(t, jobs, 2, 2, 2), 3},
	} {
		t.Run(build.name, func(t *testing.T) {
			kinds := segLibKinds(t, build.lib)
			queries := []Query{
				{Keyword: "australian open champion"},
				{Source: `find Player where sex = "female" and exists wonFinals`},
			}
			for _, kind := range kinds {
				queries = append(queries, Query{Scenes: kind})
			}
			refDL, err := NewDigitalLibrary(site, build.lib)
			if err != nil {
				t.Fatal(err)
			}
			loaded := saveAndLoad(t, build.lib)
			if got := loaded.View().NumSegments(); got != build.nparts {
				t.Fatalf("%d segments, want %d", got, build.nparts)
			}
			if loaded.View().Stats() != build.lib.View().Stats() {
				t.Fatal("stats diverge")
			}
			dl, err := NewDigitalLibrary(site, loaded)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				compareSearch(t, refDL, dl, q)
			}
			// Library-level scene reads too.
			for _, kind := range kinds {
				want, _ := build.lib.Scenes(kind)
				got, err := loaded.Scenes(kind)
				if err != nil || !reflect.DeepEqual(want, got) {
					t.Fatalf("Scenes(%q) diverge (%v)", kind, err)
				}
			}
		})
	}
}

// TestSegfileCompactionReplay locks compaction over a segfile-loaded
// library: hydrate-and-merge answers exactly like compacting the original,
// and the compacted single segment is byte-identical to the monolithic
// build's.
func TestSegfileCompactionReplay(t *testing.T) {
	vids := batchTestCorpus(t)
	jobs := batchJobs(vids)
	mono := buildSegmentedLib(t, jobs, len(jobs))
	lib := buildSegmentedLib(t, jobs, 2, 2, 2)
	kinds := segLibKinds(t, mono)

	loaded := saveAndLoad(t, lib)
	changed, err := loaded.Compact(0)
	if err != nil {
		t.Fatal(err)
	}
	if !changed || loaded.View().NumSegments() != 1 {
		t.Fatalf("changed=%t segments=%d", changed, loaded.View().NumSegments())
	}
	for _, kind := range kinds {
		want, _ := mono.Scenes(kind)
		got, err := loaded.Scenes(kind)
		if err != nil || !reflect.DeepEqual(want, got) {
			t.Fatalf("Scenes(%q) diverge after compaction (%v)", kind, err)
		}
	}
	if !bytes.Equal(segmentBytes(t, newest(t, loaded)), segmentBytes(t, newest(t, mono))) {
		t.Fatal("compacted segment not byte-identical to monolithic")
	}
}

// TestSegfileSaveLoadSaveStable locks save→load→save byte stability (the
// determinism the bench trajectory, the WAL crash matrix and the cache
// layers rely on).
func TestSegfileSaveLoadSaveStable(t *testing.T) {
	vids := batchTestCorpus(t)
	jobs := batchJobs(vids)
	lib := buildSegmentedLib(t, jobs, 3, 3)
	var first bytes.Buffer
	if err := lib.SaveIndex(&first); err != nil {
		t.Fatal(err)
	}
	loaded := loadSegfile(t, first.Bytes())
	var second bytes.Buffer
	if err := loaded.SaveIndex(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("save→load→save changed bytes")
	}
}

// TestSegfileConcurrentSearchCommit is the -race lock for serving from a
// memory-mapped library while committing into it: lazy first-touch decode
// races harmlessly with queries, a commit hydrates and extends the set,
// and answers before/after stay consistent with the heap path.
func TestSegfileConcurrentSearchCommit(t *testing.T) {
	vids := batchTestCorpus(t)
	jobs := batchJobs(vids)
	site := v2Site(t)
	base := buildSegmentedLib(t, jobs[:4], 2, 2)
	kind := segLibKinds(t, base)[0]

	lib := saveAndLoad(t, base)
	dl, err := NewDigitalLibrary(site, lib)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	golden, err := dl.Search(ctx, Query{Scenes: kind})
	if err != nil {
		t.Fatal(err)
	}
	preSnap := dl.Snapshot()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rs, err := dl.Search(ctx, Query{Scenes: kind})
				if err != nil {
					t.Errorf("search during commit: %v", err)
					return
				}
				if rs.Snapshot == preSnap && !reflect.DeepEqual(rs.Items, golden.Items) {
					t.Error("pre-commit snapshot served post-commit items")
					return
				}
			}
		}()
	}
	if _, err := dl.CommitToken(ctx, "", jobs[4:], BatchOptions{Workers: 2}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	close(stop)
	wg.Wait()

	if n := lib.View().NumSegments(); n != 3 {
		t.Fatalf("segments after commit: %d, want 3", n)
	}
	// The extended mapped library answers exactly like the same corpus
	// built entirely on the heap.
	heap := buildSegmentedLib(t, jobs, 2, 2, 2)
	for _, k := range segLibKinds(t, heap) {
		want, _ := heap.Scenes(k)
		got, err := lib.Scenes(k)
		if err != nil || !reflect.DeepEqual(want, got) {
			t.Fatalf("Scenes(%q) diverge after mapped commit (%v)", k, err)
		}
	}
}

// lanePages reads the first two 5-item pages of a concept, a lexical, a
// vector and a hybrid query.
func lanePages(t *testing.T, dl *DigitalLibrary) []*ResultSet {
	t.Helper()
	ctx := context.Background()
	var out []*ResultSet
	for _, q := range []Query{
		{Source: `find Player where sex = "female" and exists wonFinals` +
			` scenes "net-play" via wonFinals.video rank "australian open final"`},
		{Keyword: "australian open final"},
		{Vector: "women's singles winner"},
		{Hybrid: "champion interview"},
	} {
		var cur Cursor
		for page := 0; page < 2; page++ {
			rs, err := dl.Search(ctx, q, WithLimit(5), WithCursor(cur))
			if err != nil {
				t.Fatalf("%+v page %d: %v", q, page, err)
			}
			if len(rs.Items) == 0 {
				t.Fatalf("%+v page %d: no items", q, page)
			}
			out = append(out, &ResultSet{Items: rs.Items, Total: rs.Total})
			cur = rs.Cursor
		}
	}
	return out
}

// TestSwapKeepsPageLanes: a swap replaces the video side only. It neither
// rebuilds the page lanes from the site nor maps their caches again — with
// both cache files deleted, two swaps write neither back and map nothing —
// and every lane answers as before.
func TestSwapKeepsPageLanes(t *testing.T) {
	site := v2Site(t)
	dir := t.TempDir()
	opts := LibraryOptions{
		TextSegments: 2,
		TextSegfile:  filepath.Join(dir, "text.segf"),
		VecSegfile:   filepath.Join(dir, "vec.segf"),
	}
	dl, err := NewDigitalLibraryWith(site, v2Library(t, site, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	before := lanePages(t, dl)
	for _, path := range []string{opts.TextSegfile, opts.VecSegfile} {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	mapped := segfile.MappedBytes()
	for i := 0; i < 2; i++ {
		dl.Swap(v2Library(t, site, 0))
	}
	for _, path := range []string{opts.TextSegfile, opts.VecSegfile} {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s after two swaps: %v, want it still deleted", filepath.Base(path), err)
		}
	}
	if got := segfile.MappedBytes(); got != mapped {
		t.Errorf("two swaps over heap libraries moved the mapped bytes %d -> %d", mapped, got)
	}
	if after := lanePages(t, dl); !reflect.DeepEqual(after, before) {
		t.Error("pages after the swaps differ from the pages before them")
	}
}

// TestRankedAnswersIgnoreVideoLibrary: both ranked lanes index the pages
// alone. Over a library opened from a segfile, lexical, vector and hybrid
// answers are byte-identical before and after a commit, a compaction and a
// swap, and no segment is decoded until the first scene or combined query.
func TestRankedAnswersIgnoreVideoLibrary(t *testing.T) {
	jobs := batchJobs(batchTestCorpus(t))
	site := v2Site(t)
	var sf bytes.Buffer
	if err := buildSegmentedLib(t, jobs[:4], 2, 1, 1).SaveIndex(&sf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lib.segf")
	if err := os.WriteFile(path, sf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	open := func() *Library {
		lib, err := LoadLibraryFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lib.Close() })
		return lib
	}
	lib := open()
	dl, err := NewDigitalLibrary(site, lib)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// ranked reads each ranked answer whole and as its first two 5-item pages.
	ranked := func() []*ResultSet {
		t.Helper()
		var out []*ResultSet
		for _, q := range []Query{
			{Keyword: "australian open final"},
			{Vector: "women's singles winner"},
			{Hybrid: "champion interview"},
		} {
			rs, err := dl.Search(ctx, q)
			if err != nil || rs.Total == 0 {
				t.Fatalf("%+v: %v, %v", q, rs, err)
			}
			out = append(out, &ResultSet{Items: rs.Items, Total: rs.Total})
			var cur Cursor
			for page := 0; page < 2; page++ {
				rs, err := dl.Search(ctx, q, WithLimit(5), WithCursor(cur))
				if err != nil {
					t.Fatalf("%+v page %d: %v", q, page, err)
				}
				out = append(out, &ResultSet{Items: rs.Items, Total: rs.Total})
				cur = rs.Cursor
			}
		}
		return out
	}
	// noneHydrated requires every segment of lib's view to be undecoded.
	noneHydrated := func(lib *Library, when string) {
		t.Helper()
		view := lib.View()
		for i := range view.NumSegments() {
			if view.Hydrated(i) {
				t.Fatalf("%s: segment %d of %d decoded", when, i, view.NumSegments())
			}
		}
	}
	noneHydrated(lib, "after building the library")
	before := ranked()
	noneHydrated(lib, "after ranked queries")

	if _, err := dl.CommitToken(ctx, "", jobs[4:5], BatchOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ranked(), before) {
		t.Fatal("the commit moved a ranked answer")
	}
	if changed, err := dl.Compact(0); err != nil || !changed {
		t.Fatalf("compact: changed %t, %v", changed, err)
	}
	if !reflect.DeepEqual(ranked(), before) {
		t.Fatal("the compaction moved a ranked answer")
	}
	lib = open()
	dl.Swap(lib)
	if !reflect.DeepEqual(ranked(), before) {
		t.Fatal("the swap moved a ranked answer")
	}
	noneHydrated(lib, "after a swap and ranked queries")

	if _, err := dl.Search(ctx, Query{Source: `find Final scenes "rally" via video`}); err != nil {
		t.Fatal(err)
	}
	if view := lib.View(); !view.Hydrated(0) {
		t.Fatal("a combined query with a scene join decoded no segment")
	}
}

// footprintPerObject bounds the live heap a warm-booted library holds per
// webspace object in TestWarmLibraryFootprint: 335 bytes, measured when the
// webspace's attribute values became typed columns and the lanes' document
// names string tables (510 bytes before; 1,298 before the library stopped
// keeping the site's pages), plus 15 %.
const footprintPerObject = 385

// TestWarmLibraryFootprint: a library warm-booted from both page-lane
// caches keeps the site's object graph and what its lanes serve from, not
// the generated pages — they are garbage once the caller drops the site —
// and its live heap per webspace object stays under footprintPerObject.
func TestWarmLibraryFootprint(t *testing.T) {
	gen := func() *Site {
		site, err := GenerateSite(SiteConfig{Players: 2048, Seed: 16})
		if err != nil {
			t.Fatal(err)
		}
		return site
	}
	dir := t.TempDir()
	opts := LibraryOptions{
		TextSegments: 4,
		TextSegfile:  filepath.Join(dir, "text.segf"),
		VecSegfile:   filepath.Join(dir, "vec.segf"),
	}
	if _, err := NewDigitalLibraryWith(gen(), nil, opts); err != nil { // writes the caches
		t.Fatal(err)
	}
	base := liveHeap()
	site := gen()
	objects := site.W.Len()
	collected := make(chan struct{})
	runtime.SetFinalizer(&site.Pages[0], func(*webspace.Page) { close(collected) })
	dl, err := NewDigitalLibraryWith(site, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	site = nil
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
		case <-time.After(10 * time.Millisecond):
			if i < 100 {
				continue
			}
			t.Fatal("the library keeps the site's pages alive")
		}
		break
	}
	perObject := (liveHeap() - base) / uint64(objects)
	runtime.KeepAlive(dl)
	t.Logf("live heap of a warm-booted library: %d bytes per webspace object (%d objects)", perObject, objects)
	if perObject > footprintPerObject {
		t.Errorf("live heap %d bytes per webspace object, want at most %d", perObject, footprintPerObject)
	}
}

// liveHeap collects garbage and reads the live heap it leaves. The second
// collection empties what sync.Pools kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
