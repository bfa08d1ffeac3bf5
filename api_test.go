package repro

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/vidfmt"
)

func TestLibraryIndexAndScenes(t *testing.T) {
	cfg := DefaultBroadcastConfig(301)
	cfg.Shots = 6
	b, err := GenerateBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := NewLibrary()
	if err != nil {
		t.Fatal(err)
	}
	vid := indexOne(t, lib, "clip-301", b.Frames, b.FPS)
	segs, err := lib.Segments(vid)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	// Some event kind must have scenes.
	total := 0
	for _, kind := range []string{"rally", "net-play", "service"} {
		scenes, err := lib.Scenes(kind)
		if err != nil {
			t.Fatal(err)
		}
		total += len(scenes)
		for _, s := range scenes {
			if s.Video.Name != "clip-301" {
				t.Fatalf("scene video = %q", s.Video.Name)
			}
		}
	}
	if total == 0 {
		t.Fatal("no scenes detected in generated broadcast")
	}
}

func TestLibraryPersistence(t *testing.T) {
	cfg := DefaultBroadcastConfig(302)
	cfg.Shots = 4
	b, _ := GenerateBroadcast(cfg)
	lib, _ := NewLibrary()
	indexOne(t, lib, "clip", b.Frames, b.FPS)
	lib2 := saveAndLoad(t, lib)
	if lib2.View().Stats() != lib.View().Stats() {
		t.Fatal("restored index differs")
	}
}

func TestSVFRoundTripViaFacade(t *testing.T) {
	cfg := DefaultBroadcastConfig(303)
	cfg.Shots = 2
	b, _ := GenerateBroadcast(cfg)
	path := filepath.Join(t.TempDir(), "clip.svf")
	if err := WriteSVF(path, b.Frames[:20], b.FPS); err != nil {
		t.Fatal(err)
	}
	frames, meta, err := vidfmt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 20 || meta.FPS != b.FPS {
		t.Fatalf("got %d frames @%dfps", len(frames), meta.FPS)
	}
	lib, _ := NewLibrary()
	if _, err := lib.IndexBatch(context.Background(), []IngestJob{{Name: "from-file", Path: path}}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestDigitalLibraryMotivatingQuery(t *testing.T) {
	site, err := GenerateSite(SiteConfig{Players: 32, YearStart: 1999, YearEnd: 2001, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	dl, err := NewDigitalLibrary(site, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	results, err := dl.Search(ctx, Query{Source: `find Player where sex = "female" and exists wonFinals`})
	if err != nil {
		t.Fatal(err)
	}
	if len(results.Items) == 0 {
		t.Fatal("no female champions found")
	}
	// Keyword baseline works too.
	hits, err := dl.Search(ctx, Query{Keyword: "australian open final"}, WithLimit(5))
	if err != nil || len(hits.Items) == 0 {
		t.Fatalf("keyword baseline: %v, %v", hits, err)
	}
	// The canonical motivating query parses.
	if _, err := dl.Search(ctx, Query{Source: MotivatingQuery()}); err != nil {
		t.Fatalf("motivating query rejected: %v", err)
	}
}

func TestGrammarExports(t *testing.T) {
	txt := GrammarText()
	if !strings.Contains(txt, "feature grammar") {
		t.Fatalf("text output malformed:\n%s", txt)
	}
}

func TestSearchAndServerFacade(t *testing.T) {
	site, err := GenerateSite(SiteConfig{Players: 32, YearStart: 1999, YearEnd: 2001, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	dl, err := NewDigitalLibrary(site, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := Query{Request: &Request{Class: "Player", Text: "final", Limit: 5}}
	seq, err := dl.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	again, err := dl.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Items, again.Items) {
		t.Fatal("repeated Search result differs")
	}

	srv := NewServer(dl, ServerOptions{CacheSize: 16, Workers: 2})
	cold, cached, err := srv.Search(ctx, q, "", 0, false)
	if err != nil || cached {
		t.Fatalf("cold serve: cached=%t err=%v", cached, err)
	}
	warm, cached, err := srv.Search(ctx, q, "", 0, false)
	if err != nil || !cached {
		t.Fatalf("warm serve: cached=%t err=%v", cached, err)
	}
	if !reflect.DeepEqual(cold.Items, warm.Items) || !reflect.DeepEqual(cold.Items, seq.Items) {
		t.Fatal("served results diverge from engine results")
	}
}
