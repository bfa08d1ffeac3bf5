package repro

import (
	"path/filepath"
	"runtime"
	"testing"
)

// sceneFixture indexes one SVF-backed broadcast and returns the library
// plus a detected scene.
func sceneFixture(t *testing.T) (*Library, Scene) {
	t.Helper()
	lib, scenes := sceneLibrary(t)
	return lib, scenes[0]
}

// sceneLibrary indexes one SVF-backed broadcast and returns the library
// plus every rally, net-play and service scene detected in it.
func sceneLibrary(t *testing.T) (*Library, []Scene) {
	t.Helper()
	cfg := DefaultBroadcastConfig(501)
	cfg.Shots = 6
	b, err := GenerateBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "clip.svf")
	if err := WriteSVF(path, b.Frames, b.FPS); err != nil {
		t.Fatal(err)
	}
	lib, err := NewLibrary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.IndexSVF("clip", path); err != nil {
		t.Fatal(err)
	}
	var all []Scene
	for _, kind := range []string{"rally", "net-play", "service"} {
		scenes, err := lib.Scenes(kind)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, scenes...)
	}
	if len(all) == 0 {
		t.Fatal("no scenes detected in fixture broadcast")
	}
	return lib, all
}

// ExtractScene decodes the scene, not the video: every scene of a broadcast
// equals ExtractSceneFrames over the whole decoded video, and extracting it
// allocates the scene's frames plus three frames of slack (the decode
// state, one frame record, the index) — not the video and its file.
func TestExtractSceneDecodesOnlyTheScene(t *testing.T) {
	lib, scenes := sceneLibrary(t)
	whole, _, err := ReadSVF(scenes[0].Video.Path)
	if err != nil {
		t.Fatal(err)
	}
	// A frame's pixels round up to whole 8 KB pages in the allocator.
	frameBytes := uint64(3*whole[0].W*whole[0].H+8191) &^ 8191
	for _, s := range scenes {
		want, err := ExtractSceneFrames(s, whole)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := lib.ExtractScene(s)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s %v: %v", s.Event.Kind, s.Event.Interval, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s %v: %d frames, want %d", s.Event.Kind, s.Event.Interval, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s %v: frame %d differs", s.Event.Kind, s.Event.Interval, s.Event.Start+i)
			}
		}
		bound := uint64(len(want)+3) * frameBytes
		if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
			t.Errorf("%s %v: %d bytes allocated for %d frames of %d, want <= %d",
				s.Event.Kind, s.Event.Interval, grew, len(want), len(whole), bound)
		}
	}
}

func TestExtractAndSaveScene(t *testing.T) {
	lib, scene := sceneFixture(t)
	frames, err := lib.ExtractScene(scene)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != scene.Event.Len() {
		t.Fatalf("extracted %d frames, want %d", len(frames), scene.Event.Len())
	}
	out := filepath.Join(t.TempDir(), "scene.svf")
	if err := lib.SaveScene(scene, out); err != nil {
		t.Fatal(err)
	}
	clip, fps, err := ReadSVF(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(clip) != len(frames) || fps != scene.Video.FPS {
		t.Fatalf("saved clip %d frames @%d, want %d @%d", len(clip), fps, len(frames), scene.Video.FPS)
	}
	for i := range clip {
		if !clip[i].Equal(frames[i]) {
			t.Fatalf("saved frame %d differs", i)
		}
	}
}

func TestExtractSceneNeedsPath(t *testing.T) {
	cfg := DefaultBroadcastConfig(502)
	cfg.Shots = 4
	b, _ := GenerateBroadcast(cfg)
	lib, _ := NewLibrary()
	if _, err := lib.IndexFrames("mem", b.Frames, b.FPS); err != nil {
		t.Fatal(err)
	}
	scenes, _ := lib.Scenes("rally")
	if len(scenes) == 0 {
		t.Skip("no rally in this seed")
	}
	if _, err := lib.ExtractScene(scenes[0]); err == nil {
		t.Fatal("pathless video extracted")
	}
	// Frames variant works.
	frames, err := ExtractSceneFrames(scenes[0], b.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != scenes[0].Event.Len() {
		t.Fatal("wrong frame count")
	}
}

func TestExtractSceneFramesBounds(t *testing.T) {
	s := Scene{Event: Event{Interval: Interval{Start: 5, End: 50}}}
	if _, err := ExtractSceneFrames(s, make([]*Image, 10)); err == nil {
		t.Fatal("out-of-range interval accepted")
	}
	s.Event.Interval = Interval{Start: 3, End: 3}
	if _, err := ExtractSceneFrames(s, make([]*Image, 10)); err == nil {
		t.Fatal("empty interval accepted")
	}
}

func TestScenesRelatedComposite(t *testing.T) {
	lib, _ := sceneFixture(t)
	// net-play during/within rally is script-dependent; the call must
	// succeed and return only same-video, correctly-related pairs.
	pairs, err := lib.ScenesRelated("net-play", "rally")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.A.VideoID != p.B.VideoID {
			t.Fatal("cross-video pair")
		}
		if p.A.Kind != "net-play" || p.B.Kind != "rally" {
			t.Fatalf("wrong kinds: %+v", p)
		}
	}
	// Service then rally within a shot: the service scripts guarantee at
	// least one such pair per service shot.
	follows, err := lib.ScenesFollowing("service", "rally", 25)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range follows {
		if p.B.Start < p.A.End {
			t.Fatalf("not following: %+v", p)
		}
	}
}
