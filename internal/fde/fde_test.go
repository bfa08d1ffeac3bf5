package fde

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/grammar"
	"repro/internal/shotdet"
	"repro/internal/synth"
	"repro/internal/track"
)

func genVideo(t *testing.T, seed int64, shots int) *synth.Video {
	t.Helper()
	cfg := synth.DefaultConfig(seed)
	cfg.Shots = shots
	v, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func coreVideo(v *synth.Video, name string) core.Video {
	return core.Video{Name: name, Width: v.W, Height: v.H, FPS: v.FPS, Frames: len(v.Frames)}
}

func TestEngineRequiresBindings(t *testing.T) {
	e, err := New(grammar.Tennis())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Process(core.Video{}, nil); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Fatalf("unbound process = %v", err)
	}
	if err := e.Bind("ghost", func(*Context) error { return nil }); err == nil {
		t.Fatal("bound unknown detector")
	}
	if err := e.Bind("segment", nil); err == nil {
		t.Fatal("bound nil impl")
	}
}

func TestTennisEngineFullParse(t *testing.T) {
	v := genVideo(t, 50, 8)
	e, err := NewTennisEngine(DefaultTennisConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Process(coreVideo(v, "test-video"), v.Frames)
	if err != nil {
		t.Fatal(err)
	}
	// All grammar symbols must be populated.
	for _, sym := range []string{"video", "shots", "classes", "players", "trajectories", "shapes", "event_netplay", "event_rally", "event_service"} {
		if _, ok := res.Get(sym); !ok {
			t.Errorf("symbol %s missing", sym)
		}
	}
	shotsV, _ := res.Get("shots")
	shots := shotsV.([]shotdet.Shot)
	if len(shots) != len(v.Truth.Shots) {
		t.Fatalf("parsed %d shots, truth %d", len(shots), len(v.Truth.Shots))
	}
	// Rally events must exist (every generated video has tennis shots).
	evV, _ := res.Get("event_rally")
	evs := evV.([]TennisEvent)
	foundRally := false
	for _, truth := range v.Truth.Events {
		if truth.Kind == synth.EventRally {
			foundRally = true
		}
	}
	if foundRally && len(evs) == 0 {
		t.Fatal("no rally events detected despite scripted rallies")
	}
	// Every detector ran once, in the engine's per-detector record.
	st := e.Stats()
	for _, d := range []string{"segment", "tennis", "netplay", "rally", "service"} {
		if st[d].Runs != 1 {
			t.Errorf("%s: %d runs recorded, want 1", d, st[d].Runs)
		}
	}
}

func TestIndexResultPopulatesAllLayers(t *testing.T) {
	v := genVideo(t, 51, 8)
	e, _ := NewTennisEngine(DefaultTennisConfig())
	res, err := e.Process(coreVideo(v, "indexed"), v.Frames)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	vid, err := IndexResult(res, idx)
	if err != nil {
		t.Fatal(err)
	}
	st := idx.Stats()
	if st.Videos != 1 || st.Segments == 0 || st.Objects == 0 || st.States == 0 {
		t.Fatalf("index stats = %+v", st)
	}
	part := idx.Freeze()
	segs, _ := part.SegmentsOf(vid)
	if len(segs) != len(v.Truth.Shots) {
		t.Fatalf("indexed %d segments, want %d", len(segs), len(v.Truth.Shots))
	}
	// Tennis segments must carry tracked objects, one state per frame.
	tennisFrames := 0
	for _, s := range segs {
		if s.Class == "tennis" {
			tennisFrames += s.Len()
		}
	}
	if tennisFrames == 0 {
		t.Fatal("no tennis segments indexed")
	}
	if st.States < tennisFrames {
		t.Fatalf("%d object states for %d tennis frames", st.States, tennisFrames)
	}
	// Events must reference real segments and use absolute frames.
	for _, kind := range []string{"net-play", "rally", "service"} {
		scenes, _ := part.Scenes(kind)
		for _, sc := range scenes {
			if ev := sc.Event; ev.Start < 0 || ev.End > len(v.Frames) || ev.Start >= ev.End {
				t.Fatalf("event interval %v outside video", ev.Interval)
			}
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	v := genVideo(t, 53, 4)
	e, _ := NewTennisEngine(DefaultTennisConfig())
	if _, err := e.Process(coreVideo(v, "a"), v.Frames); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Process(coreVideo(v, "b"), v.Frames); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st["segment"].Runs != 2 || st["tennis"].Runs != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st["segment"].Total <= 0 {
		t.Fatal("no time recorded")
	}
}

func TestDetectorMustProduceSymbols(t *testing.T) {
	g := grammar.MustParse(`grammar g; atom video;
detector d requires video produces x whitebox;`)
	e, _ := New(g)
	_ = e.Bind("d", func(ctx *Context) error { return nil }) // forgets Set("x")
	if _, err := e.Process(core.Video{}, nil); err == nil || !strings.Contains(err.Error(), "did not produce") {
		t.Fatalf("missing produce = %v", err)
	}
}

func TestDetectorErrorPropagates(t *testing.T) {
	g := grammar.MustParse(`grammar g; atom video;
detector d requires video produces x whitebox;`)
	e, _ := New(g)
	_ = e.Bind("d", func(ctx *Context) error { return os.ErrPermission })
	if _, err := e.Process(core.Video{}, nil); err == nil || !strings.Contains(err.Error(), "detector d") {
		t.Fatalf("error = %v", err)
	}
	if e.Stats()["d"].Errors != 1 {
		t.Fatal("error not counted")
	}
}

func TestShotProtocolRoundTrip(t *testing.T) {
	shots := []shotdet.Shot{
		{Start: 0, End: 40, Class: shotdet.ClassTennis},
		{Start: 40, End: 70, Class: shotdet.ClassCloseUp},
		{Start: 70, End: 100, Class: shotdet.ClassAudience},
		{Start: 100, End: 120, Class: shotdet.ClassOther},
	}
	s := FormatShotProtocol(shots)
	got, err := ParseShotProtocol("# comment\n" + s + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d shots", len(got))
	}
	for i := range shots {
		if got[i] != shots[i] {
			t.Fatalf("shot %d: %+v != %+v", i, got[i], shots[i])
		}
	}
}

func TestShotProtocolErrors(t *testing.T) {
	bad := []string{
		"",
		"SHOT 0 x tennis",
		"SHOT 10 5 tennis",
		"SHOT 0 10 basketweaving",
		"CUT 0 10 tennis",
		"SHOT 0 10",
	}
	for _, s := range bad {
		if _, err := ParseShotProtocol(s); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
}

func TestBlackBoxSegmentViaScript(t *testing.T) {
	// A fake external detector: ignores its stdin and emits fixed shots.
	dir := t.TempDir()
	script := filepath.Join(dir, "fake-segdet.sh")
	body := "#!/bin/sh\ncat > /dev/null\necho 'SHOT 0 30 tennis'\necho 'SHOT 30 60 close-up'\n"
	if err := os.WriteFile(script, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTennisConfig()
	cfg.SegmentImpl = BlackBoxSegment(script)
	e, err := NewTennisEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := genVideo(t, 54, 3)
	res, err := e.Process(coreVideo(v, "bb"), v.Frames[:60])
	if err != nil {
		t.Fatal(err)
	}
	shotsV, _ := res.Get("shots")
	shots := shotsV.([]shotdet.Shot)
	if len(shots) != 2 || shots[0].Class != shotdet.ClassTennis || shots[1].End != 60 {
		t.Fatalf("black-box shots = %+v", shots)
	}
}

func TestBlackBoxSegmentFailurePropagates(t *testing.T) {
	cfg := DefaultTennisConfig()
	cfg.SegmentImpl = BlackBoxSegment("/nonexistent/binary")
	e, err := NewTennisEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := genVideo(t, 55, 3)
	if _, err := e.Process(coreVideo(v, "bb"), v.Frames); err == nil {
		t.Fatal("missing binary did not error")
	}
}

func TestTrackToSeriesShape(t *testing.T) {
	var res track.ShotResult
	res.Near.Obs = []track.Observation{
		{Frame: 0, Found: true, X: 10, Y: 20, VX: 1, VY: -1,
			Shape: frame.Shape{Area: 50, Orientation: 1.5, Eccentricity: 0.8,
				BBox: frame.Rect{X0: 0, Y0: 0, X1: 5, Y1: 10}}},
	}
	s := TrackToSeries(res)
	near := s["near"]
	if len(near) != 1 || len(s["far"]) != 0 {
		t.Fatalf("series lengths: near %d far %d", len(near), len(s["far"]))
	}
	st := near[0]
	if !st.Found || st.X != 10 || st.VY != -1 || st.Area != 50 || st.Aspect != 2 {
		t.Fatalf("converted state = %+v", st)
	}
}
