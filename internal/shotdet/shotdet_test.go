package shotdet

import (
	"math/rand"
	"testing"

	"repro/internal/frame"
	"repro/internal/synth"
)

// recomputedColors summarises every frame's colour histogram afresh, as
// the boundary pass would: the court-colour vote's input.
func recomputedColors(frames []*frame.Image) videoColors {
	cs := make(videoColors, len(frames))
	for i, im := range frames {
		cs[i] = colorOf(frame.HistogramOf(im, bins))
	}
	return cs
}

// segmentAll is SegmentAndClassify over an in-memory video, which cannot
// fail.
func segmentAll(t *testing.T, frames []*frame.Image) []Shot {
	t.Helper()
	shots, err := SegmentAndClassify(frame.Frames(frames))
	if err != nil {
		t.Fatal(err)
	}
	return shots
}

// shotsOf splits frames into shots at the boundaries Detect finds.
func shotsOf(frames []*frame.Image) []Shot {
	var shots []Shot
	start := 0
	for _, b := range new(Sweeper).Detect(frames, Threshold) {
		shots = append(shots, Shot{Start: start, End: b})
		start = b
	}
	if start < len(frames) {
		shots = append(shots, Shot{Start: start, End: len(frames)})
	}
	return shots
}

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

func TestDetectBoundariesExact(t *testing.T) {
	v := genVideo(t, 21, 8)
	got := new(Sweeper).Detect(v.Frames, Threshold)
	want := v.Truth.Boundaries()
	if len(got) != len(want) {
		t.Fatalf("detected %d boundaries, want %d (got %v want %v)", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("boundary %d at frame %d, want %d", i, got[i], want[i])
		}
	}
}

func TestNoFalseCutsOnSingleShot(t *testing.T) {
	cfg := synth.DefaultConfig(31)
	frames, _, _, _, err := synth.RenderTennisShot(cfg, "rally", 120)
	if err != nil {
		t.Fatal(err)
	}
	if got := new(Sweeper).Detect(frames, Threshold); len(got) != 0 {
		t.Fatalf("false cuts on continuous shot: %v", got)
	}
}

func TestMinShotLenSuppression(t *testing.T) {
	// Two hard cuts 3 frames apart; MinShotLen 6 must suppress the second.
	a := frame.New(32, 32)
	a.Fill(frame.RGB{R: 200, G: 0, B: 0})
	b := frame.New(32, 32)
	b.Fill(frame.RGB{R: 0, G: 200, B: 0})
	c := frame.New(32, 32)
	c.Fill(frame.RGB{R: 0, G: 0, B: 200})
	var frames []*frame.Image
	for i := 0; i < 10; i++ {
		frames = append(frames, a.Clone())
	}
	for i := 0; i < 3; i++ {
		frames = append(frames, b.Clone())
	}
	for i := 0; i < 10; i++ {
		frames = append(frames, c.Clone())
	}
	got := new(Sweeper).Detect(frames, Threshold)
	if len(got) != 1 || got[0] != 10 {
		t.Fatalf("got %v, want single cut at 10", got)
	}
}

// wipeFrames is 15 frames of one flat scene, a top-to-bottom wipe to
// another over dn frames, and 15 frames of the second scene. Each step of
// the wipe replaces 1/dn of the pixels, so at dn = 10 the distance between
// neighbouring frames stays below the hard-cut threshold while the
// distance across the wipe crosses it.
func wipeFrames(dn int) []*frame.Image {
	colA := frame.RGB{R: 30, G: 120, B: 50}
	colB := frame.RGB{R: 90, G: 90, B: 160}
	a := frame.New(48, 48)
	a.Fill(colA)
	b := frame.New(48, 48)
	b.Fill(colB)
	var frames []*frame.Image
	for i := 0; i < 15; i++ {
		frames = append(frames, a.Clone())
	}
	for i := 1; i <= dn; i++ {
		im := a.Clone()
		im.FillRect(frame.Rect{X0: 0, Y0: 0, X1: 48, Y1: 48 * i / dn}, colB)
		frames = append(frames, im)
	}
	for i := 0; i < 15; i++ {
		frames = append(frames, b.Clone())
	}
	return frames
}

// TestGradualTransitionDetected: a wipe no neighbouring pair of frames
// reveals is one boundary, inside the wipe.
func TestGradualTransitionDetected(t *testing.T) {
	const dn = 10
	got := new(Sweeper).Detect(wipeFrames(dn), Threshold)
	if len(got) != 1 {
		t.Fatalf("got %d boundaries %v, want exactly 1", len(got), got)
	}
	if got[0] < 15 || got[0] > 15+dn+1 {
		t.Fatalf("gradual boundary at %d, want within wipe [15,%d]", got[0], 15+dn+1)
	}
}

func TestSegmentCoversAllFrames(t *testing.T) {
	v := genVideo(t, 25, 7)
	shots := segmentAll(t, v.Frames)
	pos := 0
	for _, s := range shots {
		if s.Start != pos {
			t.Fatalf("shot starts at %d, want %d", s.Start, pos)
		}
		pos = s.End
	}
	if pos != len(v.Frames) {
		t.Fatalf("shots cover %d frames of %d", pos, len(v.Frames))
	}
}

func TestSegmentEmptyInput(t *testing.T) {
	if shots := segmentAll(t, nil); len(shots) != 0 {
		t.Fatalf("empty video produced shots: %v", shots)
	}
}

func TestClassifyShotsMatchTruth(t *testing.T) {
	v := genVideo(t, 26, 12)
	shots := segmentAll(t, v.Frames)
	if len(shots) != len(v.Truth.Shots) {
		t.Fatalf("detected %d shots, want %d", len(shots), len(v.Truth.Shots))
	}
	for i, s := range shots {
		want := v.Truth.Shots[i].Class.String()
		if s.Class.String() != want {
			t.Errorf("shot %d [%d,%d): classified %s, want %s (features %+v)",
				i, s.Start, s.End, s.Class, want, s.Features)
		}
	}
}

// TestColorsMatchRecomputed: SegmentAndClassify, whose court vote and
// classifier read the boundary pass's per-frame colours, must answer
// exactly what recomputing every histogram answers — segment, then the
// court vote, then classifyShot shot by shot, features included.
func TestColorsMatchRecomputed(t *testing.T) {
	v := genVideo(t, 26, 12)
	want := shotsOf(v.Frames)
	court, ok := recomputedColors(v.Frames).courtColor()
	if !ok {
		t.Fatal("no court colour estimated")
	}
	got := segmentAll(t, v.Frames)
	if len(got) != len(want) {
		t.Fatalf("%d shots, Segment found %d", len(got), len(want))
	}
	cls := NewClassifier(court)
	for i, s := range got {
		class, f := cls.ClassifyShot(v.Frames, want[i].Start, want[i].End)
		if s.Start != want[i].Start || s.End != want[i].End || s.Class != class || s.Features != f {
			t.Fatalf("shot %d: SegmentAndClassify %v %+v, recomputed %v %v %+v", i, s, s.Features, want[i], class, f)
		}
	}
}

func TestClassifierRules(t *testing.T) {
	cls := NewClassifier(synth.CourtColor)
	cases := []struct {
		f    Features
		want Class
	}{
		{Features{CourtShare: 0.6}, ClassTennis},
		{Features{CourtShare: 0.1, SkinRatio: 0.3, SkinBlob: 0.2}, ClassCloseUp},
		{Features{CourtShare: 0.1, SkinRatio: 0.02, Entropy: 9}, ClassAudience},
		{Features{CourtShare: 0.1, SkinRatio: 0.02, Entropy: 3}, ClassOther},
		// Court dominates even with skin present (player close to camera
		// on court).
		{Features{CourtShare: 0.5, SkinRatio: 0.2, SkinBlob: 0.1}, ClassTennis},
		// Crowd skin is speckle: plenty of skin pixels but no single blob,
		// so high entropy wins.
		{Features{SkinRatio: 0.2, SkinBlob: 0.004, Entropy: 8}, ClassAudience},
	}
	for i, c := range cases {
		if got := cls.Classify(c.f); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestClassifyShotDegenerateRanges(t *testing.T) {
	v := genVideo(t, 27, 3)
	cls := NewClassifier(synth.CourtColor)
	if c, _ := cls.ClassifyShot(v.Frames, 5, 5); c != ClassOther {
		t.Fatal("empty range should classify as other")
	}
	if c, _ := cls.ClassifyShot(v.Frames, -10, 1); c == ClassOther {
		t.Fatal("clamped range lost the first tennis frame")
	}
}

func TestEstimateCourtColor(t *testing.T) {
	v := genVideo(t, 28, 10)
	got, ok := recomputedColors(v.Frames).courtColor()
	if !ok {
		t.Fatal("no court colour estimated")
	}
	if frame.ColorDist(got, synth.CourtColor) > 40 {
		t.Fatalf("estimated court colour %v too far from true %v", got, synth.CourtColor)
	}
}

func TestEstimateCourtColorCloseUpHeavyVideo(t *testing.T) {
	// Regression: in videos where close-ups outnumber playing shots, the
	// near-grey close-up background used to outvote the court colour (its
	// gradient midpoint cell can hold >30% of pixels). The saturation gate
	// must keep the estimate on the chromatic court surface.
	cfg := synth.DefaultConfig(501)
	cfg.Shots = 6
	v, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := recomputedColors(v.Frames).courtColor()
	if !ok {
		t.Fatal("no court colour estimated")
	}
	if frame.ColorDist(got, synth.CourtColor) > 40 {
		t.Fatalf("estimate %v drifted to a non-court colour (true %v)", got, synth.CourtColor)
	}
	// And classification downstream of the estimate stays correct.
	cls := NewClassifier(got)
	for i, s := range v.Truth.Shots {
		c, _ := cls.ClassifyShot(v.Frames, s.Start, s.End)
		if c.String() != s.Class.String() {
			t.Errorf("shot %d: classified %s, want %s", i, c, s.Class)
		}
	}
}

// TestEstimateCourtColorTieIsDeterministic: a video with as many frames
// dominated by one saturated colour as by another (a court shot and a
// reaction shot against a coloured backdrop, say) must estimate the same
// colour on every call — the lowest under (R, G, B) — not whichever the
// vote map happens to yield first.
func TestEstimateCourtColorTieIsDeterministic(t *testing.T) {
	backdrop := frame.RGB{R: 200, G: 40, B: 40}
	var frames []*frame.Image
	for _, c := range []frame.RGB{backdrop, synth.CourtColor, synth.CourtColor, backdrop} {
		im := frame.New(32, 32)
		im.Fill(c)
		frames = append(frames, im)
	}
	want, ok := recomputedColors(frames[1:3]).courtColor() // the court's histogram cell
	if !ok || frame.ColorDist(want, synth.CourtColor) > 40 {
		t.Fatalf("court-only estimate = %v, %t", want, ok)
	}
	if other, _ := recomputedColors(frames[:1]).courtColor(); !lessRGB(want, other) {
		t.Fatalf("fixture: court cell %v should order before backdrop cell %v", want, other)
	}
	for i := 0; i < 50; i++ {
		if got, ok := recomputedColors(frames).courtColor(); !ok || got != want {
			t.Fatalf("call %d: tied vote estimated %v, want %v", i, got, want)
		}
	}
}

func TestEstimateCourtColorNoDominant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	frames := make([]*frame.Image, 10)
	for i := range frames {
		im := frame.New(32, 32)
		im.SpeckleNoise(rng, 1)
		frames[i] = im
	}
	if _, ok := recomputedColors(frames).courtColor(); ok {
		t.Fatal("court colour found in pure noise")
	}
}

func TestClassStringParse(t *testing.T) {
	for _, c := range []Class{ClassTennis, ClassCloseUp, ClassAudience, ClassOther} {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("round trip %v failed: %v %v", c, got, err)
		}
	}
	if _, err := ParseClass("nonsense"); err == nil {
		t.Fatal("bad class accepted")
	}
}

func TestStreamingDetectorFirstFrame(t *testing.T) {
	d := &Detector{threshold: Threshold}
	im := frame.New(16, 16)
	if d.FeedHistogram(frame.HistogramOf(im, bins)) {
		t.Fatal("first frame yielded a boundary")
	}
}

// scanCounter is an in-memory source that counts the frames it hands out.
type scanCounter struct {
	frame.Frames
	scanned int
}

func (c *scanCounter) Scan(start, end int, fn func(int, *frame.Image) error) error {
	c.scanned += end - start
	return c.Frames.Scan(start, end, fn)
}

// flatFrames is n noisy 160×120 frames of one colour.
func flatFrames(c frame.RGB, n int, seed int64) []*frame.Image {
	rng := rand.New(rand.NewSource(seed))
	frames := make([]*frame.Image, n)
	for i := range frames {
		im := frame.New(160, 120)
		im.Fill(c)
		im.AddNoise(rng, 4)
		frames[i] = im
	}
	return frames
}

// The streaming pass classifies each shot as it closes, under the
// court-colour vote's winner so far. Every shot must still come out as it
// does under the final vote of the whole video — here on a video whose
// winner changes after its first shot closed (a court shot, then a longer
// one on a saturated backdrop), on one without a chromatic vote, and on a
// broadcast — while the window holds at most the longest shot plus one
// batch, and only the flipped video's first shot is scanned twice.
func TestStreamingMatchesFinalVote(t *testing.T) {
	court, backdrop := genVideo(t, 41, 1).Frames[:14], flatFrames(frame.RGB{R: 200, G: 40, B: 40}, 44, 42)
	videos := map[string][]*frame.Image{
		"vote-flip": append(append(append([]*frame.Image(nil), court...), backdrop...), court...),
		"no-vote": append(flatFrames(frame.RGB{R: 90, G: 90, B: 90}, 20, 47),
			flatFrames(frame.RGB{R: 180, G: 180, B: 180}, 20, 48)...),
		"broadcast": genVideo(t, 26, 12).Frames,
	}
	for name, frames := range videos {
		want := shotsOf(frames)
		finalCourt, _ := recomputedColors(frames).courtColor()
		cls := NewClassifier(finalCourt)
		src := &scanCounter{Frames: frames}
		var sw Sweeper
		got, err := sw.SegmentAndClassify(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d shots, want %d", name, len(got), len(want))
		}
		longest := 0
		for i, s := range got {
			class, f := cls.ClassifyShot(frames, want[i].Start, want[i].End)
			if s.Start != want[i].Start || s.End != want[i].End || s.Class != class || s.Features != f {
				t.Fatalf("%s shot %d: streamed %v %+v, under the final vote %v %v %+v", name, i, s, s.Features, want[i], class, f)
			}
			longest = max(longest, s.Len())
		}
		if sw.Held() > longest+ahead {
			t.Errorf("%s: held %d frames, want <= longest shot %d + %d", name, sw.Held(), longest, ahead)
		}
		rescanned := src.scanned - len(frames)
		if flip := name == "vote-flip"; flip && rescanned != got[0].Len() || !flip && rescanned != 0 {
			t.Errorf("%s: %d frames scanned twice", name, rescanned)
		}
	}
}
