package track

import (
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/synth"
)

func renderShot(t *testing.T, script string, n int, seed int64) ([]*frame.Image, []synth.Point, []synth.Point) {
	t.Helper()
	cfg := synth.DefaultConfig(seed)
	frames, near, far, _, err := synth.RenderTennisShot(cfg, script, n)
	if err != nil {
		t.Fatal(err)
	}
	return frames, near, far
}

// trackFrames is ShotTracker.trackShot over a whole in-memory shot under
// cfg, which cannot fail.
func trackFrames(frames []*frame.Image, cfg config) ShotResult {
	res, err := new(ShotTracker).trackShot(frame.Frames(frames), 0, len(frames), cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// backgroundOf is the background model TrackShot estimates from im as the
// first frame of a shot.
func backgroundOf(im *frame.Image, cfg config) Background {
	return trackFrames([]*frame.Image{im}, cfg).Background
}

// segmentWindow runs the tracker's segmentation kernel over the window r of
// im against bg: it returns the scratch holding the window's masks and the
// components of the opened mask.
func segmentWindow(im *frame.Image, bg Background, r frame.Rect, cfg config) (*scratch, []frame.Component) {
	s := &scratch{bg: newBGTable(&bg, &cfg)}
	return s, s.segment(im, r, &cfg)
}

func meanError(tr Track, truth []synth.Point) float64 {
	var sum float64
	n := 0
	for i, o := range tr.Obs {
		if i >= len(truth) {
			break
		}
		sum += math.Hypot(o.X-truth[i].X, o.Y-truth[i].Y)
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n)
}

func TestEstimateBackgroundFindsCourtAndSurround(t *testing.T) {
	frames, _, _ := renderShot(t, "rally", 2, 1)
	bg := backgroundOf(frames[0], defaults)
	if len(bg.Clusters) < 2 {
		t.Fatalf("found %d background clusters, want >= 2 (court + surround)", len(bg.Clusters))
	}
	if !bg.Match(synth.CourtColor, 3, 6) {
		t.Fatal("court colour not matched by background model")
	}
	if !bg.Match(synth.SurroundColor, 3, 6) {
		t.Fatal("surround colour not matched by background model")
	}
	if bg.Match(synth.NearShirt, 3, 6) {
		t.Fatal("player shirt colour wrongly matched as background")
	}
}

func TestQuadSegmentFindsPlayers(t *testing.T) {
	frames, near, far := renderShot(t, "rally", 2, 2)
	cfg := defaults
	bg := backgroundOf(frames[0], cfg)
	_, comps := segmentWindow(frames[0], bg, frames[0].Bounds(), cfg)
	foundNear, foundFar := false, false
	for _, c := range comps {
		if c.Area < 10 {
			continue
		}
		cx, cy := c.Centroid()
		if math.Hypot(cx-near[0].X, cy-near[0].Y) < 12 {
			foundNear = true
		}
		if math.Hypot(cx-far[0].X, cy-far[0].Y) < 12 {
			foundFar = true
		}
	}
	if !foundNear {
		t.Error("near player not segmented in first frame")
	}
	if !foundFar {
		t.Error("far player not segmented in first frame")
	}
}

func TestQuadSegmentIgnoresLinesAndNet(t *testing.T) {
	frames, _, _ := renderShot(t, "rally", 1, 3)
	cfg := defaults
	bg := backgroundOf(frames[0], cfg)
	// No connected component should be line-like: wider than half the
	// frame (lines and net span the court).
	_, comps := segmentWindow(frames[0], bg, frames[0].Bounds(), cfg)
	for _, c := range comps {
		if c.BBox.W() > frames[0].W/2 {
			t.Fatalf("segmented a line-like component: %+v", c)
		}
	}
}

func TestTrackRallyShotAccuracy(t *testing.T) {
	frames, near, far := renderShot(t, "rally", 60, 4)
	res := trackFrames(frames, defaults)
	if len(res.Near.Obs) != 60 || len(res.Far.Obs) != 60 {
		t.Fatalf("tracks have %d/%d observations, want 60", len(res.Near.Obs), len(res.Far.Obs))
	}
	if e := meanError(res.Near, near); e > 4 {
		t.Errorf("near player mean error %.2f px, want <= 4", e)
	}
	if e := meanError(res.Far, far); e > 5 {
		t.Errorf("far player mean error %.2f px, want <= 5", e)
	}
	if res.Near.LostFrames > 3 {
		t.Errorf("near player lost %d frames", res.Near.LostFrames)
	}
	if res.Far.LostFrames > 6 {
		t.Errorf("far player lost %d frames", res.Far.LostFrames)
	}
}

func TestTrackNetApproach(t *testing.T) {
	frames, near, _ := renderShot(t, "net-approach", 60, 5)
	res := trackFrames(frames, defaults)
	if e := meanError(res.Near, near); e > 5 {
		t.Errorf("net-approach near error %.2f px", e)
	}
	// The tracked y must actually descend towards the net.
	first := res.Near.Obs[5].Y
	last := res.Near.Obs[59].Y
	if last >= first-10 {
		t.Errorf("tracked player did not approach net: y %f -> %f", first, last)
	}
}

func TestTrackServiceShot(t *testing.T) {
	frames, near, _ := renderShot(t, "service", 50, 6)
	res := trackFrames(frames, defaults)
	if e := meanError(res.Near, near); e > 5 {
		t.Errorf("service near error %.2f px", e)
	}
	// During the stance (first third) the player barely moves.
	var motion float64
	for i := 2; i < 15; i++ {
		motion += math.Hypot(res.Near.Obs[i].X-res.Near.Obs[i-1].X, res.Near.Obs[i].Y-res.Near.Obs[i-1].Y)
	}
	if motion/13 > 1.5 {
		t.Errorf("service stance shows %.2f px/frame of motion, want < 1.5", motion/13)
	}
}

func TestShapeFeaturesPlausible(t *testing.T) {
	frames, _, _ := renderShot(t, "rally", 20, 7)
	res := trackFrames(frames, defaults)
	for i, o := range res.Near.Obs {
		if !o.Found {
			continue
		}
		if o.Shape.Area < 50 {
			t.Fatalf("frame %d: near player area %d too small", i, o.Shape.Area)
		}
		// The standing figure must be taller than wide.
		if o.Shape.AspectRatio() < 1.2 {
			t.Fatalf("frame %d: aspect ratio %.2f, want tall figure", i, o.Shape.AspectRatio())
		}
		// Orientation of a standing figure is near vertical (±pi/2).
		if math.Abs(math.Abs(o.Shape.Orientation)-math.Pi/2) > 0.5 {
			t.Fatalf("frame %d: orientation %.2f not vertical", i, o.Shape.Orientation)
		}
	}
}

func TestDominantColourIsShirt(t *testing.T) {
	frames, _, _ := renderShot(t, "rally", 10, 8)
	res := trackFrames(frames, defaults)
	hits := 0
	for _, o := range res.Near.Obs[1:] {
		if o.Found && frame.ColorDist(o.Dominant, synth.NearShirt) < 80 {
			hits++
		}
	}
	if hits < len(res.Near.Obs)/2 {
		t.Fatalf("dominant colour matched shirt on only %d frames", hits)
	}
}

func TestTrackerCoastsThroughOcclusion(t *testing.T) {
	frames, _, _ := renderShot(t, "rally", 30, 9)
	// Paint over the near player in frames 10-13 with court colour
	// (simulated occlusion), and stand an occluder of the hard corpus's
	// shape (16×32), larger than the player and not their colour, over
	// where they are in frames 11-13: the re-acquisition gate refuses it.
	res0 := trackFrames(frames, defaults)
	occluder := frame.RGB{R: 90, G: 90, B: 200}
	for i := 10; i < 14; i++ {
		p := res0.Near.Obs[i]
		frames[i].FillRect(frame.Rect{
			X0: int(p.X) - 12, Y0: int(p.Y) - 18,
			X1: int(p.X) + 12, Y1: int(p.Y) + 18,
		}, synth.CourtColor)
		if i > 10 {
			frames[i].FillRect(frame.Rect{X0: int(p.X) - 8, Y0: int(p.Y) - 17, X1: int(p.X) + 8, Y1: int(p.Y) + 15}, occluder)
		}
	}
	_, comps := segmentWindow(frames[11], res0.Background, frames[11].Bounds(), defaults)
	if i, ok := selectComponent(comps, res0.Near.Obs[11].X, res0.Near.Obs[11].Y, minArea(&defaults, 1)); !ok || comps[i].Area < 300 {
		t.Fatal("the occluder is not the component nearest the player; the test is vacuous")
	}
	res := trackFrames(frames, defaults)
	lostIn := 0
	for i := 10; i < 14; i++ {
		if !res.Near.Obs[i].Found {
			lostIn++
		}
	}
	if lostIn != 4 {
		t.Fatalf("lost %d of the 4 occluded frames, want all: the occluder was taken for the player", lostIn)
	}
	// Tracker must re-acquire after the occlusion.
	reacquired := false
	for i := 14; i < 30; i++ {
		if res.Near.Obs[i].Found {
			reacquired = true
			break
		}
	}
	if !reacquired {
		t.Fatal("tracker never re-acquired after occlusion")
	}
}

func TestTrackShotEmptyInput(t *testing.T) {
	res := trackFrames(nil, defaults)
	if len(res.Near.Obs) != 0 || len(res.Far.Obs) != 0 {
		t.Fatal("empty input produced observations")
	}
}

func TestTrackNoPlayersInFrame(t *testing.T) {
	// A pure court scene with no players: trackers never initialize, and
	// every frame counts as lost.
	frames := make([]*frame.Image, 10)
	for i := range frames {
		im := frame.New(160, 120)
		im.Fill(synth.SurroundColor)
		g := synth.CourtGeometry(160, 120)
		im.FillRect(g.Court, synth.CourtColor)
		frames[i] = im
	}
	res := trackFrames(frames, defaults)
	if res.Near.LostFrames < 9 {
		t.Fatalf("expected near track lost, got %d lost frames", res.Near.LostFrames)
	}
}

func TestTrackPositionsSeries(t *testing.T) {
	frames, _, _ := renderShot(t, "rally", 15, 10)
	res := trackFrames(frames, defaults)
	if len(res.Near.Obs) != 15 || res.Near.LostFrames > 15 {
		t.Fatalf("%d observations, %d lost, want 15 frames", len(res.Near.Obs), res.Near.LostFrames)
	}
}

func TestSelectComponentPrefersNearPrediction(t *testing.T) {
	comps := []frame.Component{
		{Area: 100, SumX: 100 * 50, SumY: 100 * 50},  // centroid (50,50)
		{Area: 120, SumX: 120 * 200, SumY: 120 * 10}, // centroid (200,10), slightly bigger but far
	}
	got, ok := selectComponent(comps, 52, 48, 10)
	if !ok {
		t.Fatal("no component selected")
	}
	cx, _ := comps[got].Centroid()
	if cx != 50 {
		t.Fatalf("selected far component (cx=%v)", cx)
	}
	if _, ok := selectComponent(comps, 0, 0, 1000); ok {
		t.Fatal("area gate ignored")
	}
}
