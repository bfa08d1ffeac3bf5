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
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/segfile"
)

// segfileVariants persists lib and returns it reloaded through each
// loader, keyed by variant name.
func segfileVariants(t *testing.T, lib *Library) map[string]*Library {
	t.Helper()
	var sf bytes.Buffer
	if err := lib.SaveIndex(&sf); err != nil {
		t.Fatal(err)
	}
	sfPath := filepath.Join(t.TempDir(), "lib.segf")
	if err := os.WriteFile(sfPath, sf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := map[string]*Library{}
	var err error
	if out["segfile-bytes"], err = LoadLibrary(bytes.NewReader(sf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if out["segfile-mmap"], err = LoadLibraryFile(sfPath); err != nil {
		t.Fatal(err)
	}
	return out
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
			if tc.data != nil {
				if _, err := LoadLibrary(bytes.NewReader(tc.data)); !errors.Is(err, core.ErrNotSegfile) {
					t.Fatalf("LoadLibrary: err = %v, want ErrNotSegfile", err)
				}
			}
		})
	}
	// A missing file stays a not-exist error (dlserve maps it to 404 on reload).
	if _, err := LoadLibraryFile(filepath.Join(dir, "absent")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want os.ErrNotExist", err)
	}
}

// TestCorruptSegmentFailsEngineBuild: opening verifies only the manifest,
// so a segment block with one flipped byte passes LoadLibrary and its
// checksum failure surfaces where the engine build hydrates the segment —
// as NewDigitalLibrary's error (dlserve -meta exits with it), never a panic.
func TestCorruptSegmentFailsEngineBuild(t *testing.T) {
	idx, err := core.NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	idx.AddVideo(core.Video{Name: "final-2001", FPS: 25, Frames: 100})
	var buf bytes.Buffer
	if err := core.WriteSegfile(&buf, []*core.MetaIndex{idx}, []core.SegmentMeta{{ID: 1}}, 1); err != nil {
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
	lib, err := LoadLibrary(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("LoadLibrary: %v (segments are verified lazily)", err)
	}
	site, err := GenerateSite(SiteConfig{Players: 8, YearStart: 2000, YearEnd: 2001, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDigitalLibrary(site, lib); err == nil {
		t.Fatal("engine built over a segment that fails its checksum")
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
			for name, loaded := range segfileVariants(t, build.lib) {
				if got := loaded.View().NumSegments(); got != build.nparts {
					t.Fatalf("%s: %d segments, want %d", name, got, build.nparts)
				}
				if loaded.View().Stats() != build.lib.View().Stats() {
					t.Fatalf("%s: stats diverge", name)
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
						t.Fatalf("%s: Scenes(%q) diverge (%v)", name, kind, err)
					}
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

	for name, loaded := range segfileVariants(t, lib) {
		changed, err := loaded.Compact(0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !changed || loaded.View().NumSegments() != 1 {
			t.Fatalf("%s: changed=%t segments=%d", name, changed, loaded.View().NumSegments())
		}
		for _, kind := range kinds {
			want, _ := mono.Scenes(kind)
			got, err := loaded.Scenes(kind)
			if err != nil || !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: Scenes(%q) diverge after compaction (%v)", name, kind, err)
			}
		}
		var got, want bytes.Buffer
		if err := loaded.Index().Serialize(&got); err != nil {
			t.Fatal(err)
		}
		if err := mono.Index().Serialize(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: compacted segment not byte-identical to monolithic", name)
		}
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
	loaded, err := LoadLibrary(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
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

	var sf bytes.Buffer
	if err := base.SaveIndex(&sf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lib.segf")
	if err := os.WriteFile(path, sf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	lib, err := LoadLibraryFile(path)
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := dl.Commit(ctx, jobs[4:], BatchOptions{Workers: 2}); err != nil {
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
