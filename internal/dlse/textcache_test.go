package dlse

// The text-segfile cache: a cold build writes the cache, a warm start
// memory-maps it, and both engines answer every query form byte-identically.
// A stale cache (different corpus or partition count) is rebuilt, never
// served.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/webspace"
)

func cacheSite(t *testing.T, seed int64) *webspace.Site {
	t.Helper()
	site, err := webspace.GenerateAusOpen(webspace.SiteConfig{
		Players: 25, YearStart: 1999, YearEnd: 2001, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func TestTextSegfileCacheParity(t *testing.T) {
	site := cacheSite(t, 3)
	path := filepath.Join(t.TempDir(), "text.segf")
	cold, err := NewSegmented(site, nil, Options{TextSegments: 3, TextSegfile: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cold build left no cache: %v", err)
	}
	warm, err := NewSegmented(site, nil, Options{TextSegments: 3, TextSegfile: path})
	if err != nil {
		t.Fatal(err)
	}
	if warm.TextIndex().NumSegments() != 3 {
		t.Fatalf("warm segments = %d", warm.TextIndex().NumSegments())
	}
	ctx := context.Background()
	for _, q := range []Query{
		{Keyword: "australian open final"},
		{Keyword: "champion"},
		{Source: `find Player rank "left-handed winner"`},
	} {
		cr, cerr := cold.Search(ctx, q)
		wr, werr := warm.Search(ctx, q)
		if (cerr == nil) != (werr == nil) {
			t.Fatalf("%+v: err %v vs %v", q, cerr, werr)
		}
		if cerr != nil {
			continue
		}
		if !reflect.DeepEqual(cr.Items, wr.Items) {
			t.Fatalf("%+v: items diverge\ncold: %v\nwarm: %v", q, cr.Items, wr.Items)
		}
	}
}

func TestTextSegfileCacheStaleRebuild(t *testing.T) {
	siteA := cacheSite(t, 3)
	siteB := cacheSite(t, 4)
	path := filepath.Join(t.TempDir(), "text.segf")
	if _, err := NewSegmented(siteA, nil, Options{TextSegments: 2, TextSegfile: path}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Different corpus: signature mismatch forces a rebuild and rewrite.
	eb, err := NewSegmented(siteB, nil, Options{TextSegments: 2, TextSegfile: path})
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) == string(after) {
		t.Fatal("stale cache not rewritten for a different corpus")
	}
	// The rebuilt engine matches a cache-free build of the same site.
	plain, err := NewSegmented(siteB, nil, Options{TextSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	pb, _, _ := plain.TextIndex().Search("australian open", 10)
	cb, _, _ := eb.TextIndex().Search("australian open", 10)
	if !reflect.DeepEqual(pb, cb) {
		t.Fatalf("rebuilt cache diverges: %v vs %v", pb, cb)
	}
	// Different partition count over the same corpus also misses.
	if _, err := NewSegmented(siteB, nil, Options{TextSegments: 3, TextSegfile: path}); err != nil {
		t.Fatal(err)
	}
	again, err := NewSegmented(siteB, nil, Options{TextSegments: 3, TextSegfile: path})
	if err != nil {
		t.Fatal(err)
	}
	if again.TextIndex().NumSegments() != 3 {
		t.Fatalf("segments = %d after nseg change", again.TextIndex().NumSegments())
	}
	// A corrupt cache is rebuilt, not served and not fatal. Flip a header
	// byte so the open reliably fails (mid-file flips may land in bulk
	// blocks, which are never checksummed).
	data, _ := os.ReadFile(path)
	data[2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSegmented(siteB, nil, Options{TextSegments: 3, TextSegfile: path}); err != nil {
		t.Fatalf("corrupt cache not recovered: %v", err)
	}
}

// TestTextSegfileCacheV1Rebuild: testdata/text-v1.segf is the format-1 text
// cache (with the impact-ordered blocks) that the last format-1 build wrote
// for cacheSite(3) at two text segments. Its signature matches, so only its
// version refuses it: the boot rebuilds, replaces it with the cache a fresh
// cold build writes, and answers as a cache-free build does.
func TestTextSegfileCacheV1Rebuild(t *testing.T) {
	site := cacheSite(t, 3)
	v1, err := os.ReadFile(filepath.Join("testdata", "text-v1.segf"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "text.segf")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ir.OpenSegmentsFile(path, 0); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 cache: open err = %v, want a version refusal", err)
	}
	booted, err := NewSegmented(site, nil, Options{TextSegments: 2, TextSegfile: path})
	if err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "fresh.segf")
	if _, err := NewSegmented(site, nil, Options{TextSegments: 2, TextSegfile: fresh}); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	want, _ := os.ReadFile(fresh)
	if !bytes.Equal(got, want) {
		t.Fatalf("the version-1 cache was not replaced by a fresh one (%d bytes, fresh %d)", len(got), len(want))
	}
	plain, err := NewSegmented(site, nil, Options{TextSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range []Query{
		{Keyword: "australian open final"},
		{Hybrid: "champion"},
		{Source: `find Player rank "left-handed winner"`},
	} {
		br, berr := booted.Search(ctx, q)
		pr, perr := plain.Search(ctx, q)
		if berr != nil || perr != nil {
			t.Fatalf("%+v: err %v / %v", q, berr, perr)
		}
		if !reflect.DeepEqual(br.Items, pr.Items) {
			t.Fatalf("%+v: answers diverge\nbooted: %v\nplain:  %v", q, br.Items, pr.Items)
		}
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

// A cold boot serves the page-lane caches it has just written, so it equals
// a warm boot over the same files: the same answers in the lexical, vector
// and hybrid lanes, and the same live heap — the lanes are mapped, and what
// the cold build allocated to make them is garbage once it returns.
func TestColdBootEqualsWarmBoot(t *testing.T) {
	site := laneCacheSite(t)
	dir := t.TempDir()
	opts := Options{
		TextSegments: 4,
		TextSegfile:  filepath.Join(dir, "text.segf"),
		VecSegfile:   filepath.Join(dir, "vec.segf"),
	}
	queries := []Query{
		{Keyword: "australian open final"},
		{Keyword: "left-handed champion"},
		{Vector: "australian open final"},
		{Vector: "women's singles winner"},
		{Hybrid: "australian open final"},
		{Hybrid: "champion interview"},
	}
	ctx := context.Background()
	boot := func() (answers [][]Item, heap uint64) {
		base := liveHeap()
		e, err := NewSegmented(site, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		heap = liveHeap() - base
		for _, q := range queries {
			rs, err := e.Search(ctx, q)
			if err != nil {
				t.Fatalf("%+v: %v", q, err)
			}
			if len(rs.Items) == 0 {
				t.Fatalf("%+v: no answers", q)
			}
			answers = append(answers, rs.Items)
		}
		runtime.KeepAlive(e)
		return answers, heap
	}
	cold, coldHeap := boot()
	warm, warmHeap := boot()
	for i, q := range queries {
		if !reflect.DeepEqual(cold[i], warm[i]) {
			t.Errorf("%+v: cold and warm answers diverge\ncold: %v\nwarm: %v", q, cold[i], warm[i])
		}
	}
	runtime.KeepAlive(site) // its pages must not be freed inside the warm boot's measurement
	t.Logf("live heap of the engine: cold %d bytes, warm %d bytes", coldHeap, warmHeap)
	if coldHeap > warmHeap+warmHeap/10+64<<10 {
		t.Errorf("a cold boot holds %d bytes of live heap, a warm boot %d: want within 10%% + 64 KB", coldHeap, warmHeap)
	}
}
