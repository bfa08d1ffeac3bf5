package shotdet

import (
	"math"
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

// blend is a per-byte mix of a and b at weight w of b.
func blend(a, b *frame.Image, w float64) *frame.Image {
	out := frame.New(a.W, a.H)
	for i := range out.Pix {
		out.Pix[i] = uint8(math.Round((1-w)*float64(a.Pix[i]) + w*float64(b.Pix[i])))
	}
	return out
}

// dissolve cross-fades linearly: frame k of n holds (k+1)/(n+1) of b.
func dissolve(a, b *frame.Image, k, n int) *frame.Image {
	return blend(a, b, float64(k+1)/float64(n+1))
}

// fade goes through black: the first half of the n frames dims a to black,
// the second brings b up from it.
func fade(a, b *frame.Image, k, n int) *frame.Image {
	half := n / 2
	black := frame.New(a.W, a.H)
	if k < half {
		return blend(a, black, float64(k+1)/float64(half))
	}
	return blend(black, b, float64(k-half+1)/float64(n-half))
}

// transitionFrames is a two-shot broadcast (a rally, then a crowd) whose
// cut is replaced by an n-frame transition that mixes the rally's last n
// frames with the crowd's first n; it returns the frames, the
// transition's first frame and the two shots' true classes.
func transitionFrames(t *testing.T, n int, mix func(a, b *frame.Image, k, n int) *frame.Image) ([]*frame.Image, int, [2]synth.ShotClass) {
	t.Helper()
	v := genVideo(t, 33, 2)
	s := v.Truth.Shots
	if s[0].Len() <= 2*n || s[1].Len() <= 2*n {
		t.Fatalf("fixture: shots %v too short for a %d-frame transition", s, n)
	}
	frames := append([]*frame.Image(nil), v.Frames[:s[0].End]...)
	tail := frames[s[0].End-n:]
	for k := range tail {
		tail[k] = mix(tail[k], v.Frames[s[1].Start+k], k, n)
	}
	return append(frames, v.Frames[s[1].Start+n:]...), s[0].End - n, [2]synth.ShotClass{s[0].Class, s[1].Class}
}

// TestTransitionIsOneBoundary: a dissolve and a fade through black, each of
// whose neighbouring frames may differ by more than Threshold, are one
// boundary each, inside the transition, and the shots on either side keep
// their classes. Neither is one boundary under a rule that cuts wherever
// neighbouring frames differ by more than Threshold.
func TestTransitionIsOneBoundary(t *testing.T) {
	for _, tc := range []struct {
		name string
		mix  func(a, b *frame.Image, k, n int) *frame.Image
	}{{"dissolve", dissolve}, {"fade", fade}} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 12
			frames, start, classes := transitionFrames(t, n, tc.mix)
			got := new(Sweeper).Detect(frames, Threshold)
			if len(got) != 1 || got[0] < start || got[0] >= start+n {
				t.Fatalf("transition [%d,%d): boundaries %v, want one inside it", start, start+n, got)
			}
			shots := segmentAll(t, frames)
			if len(shots) != 2 || shots[1].Start != got[0] {
				t.Fatalf("shots %v, want two split at %d", shots, got[0])
			}
			for i, sh := range shots {
				if sh.Class.String() != classes[i].String() {
					t.Errorf("shot %v classified %s, want %s", sh, sh.Class, classes[i])
				}
			}
		})
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

func TestCourtBallotFindsCourt(t *testing.T) {
	v := genVideo(t, 28, 10)
	got, ok := recomputedColors(v.Frames).courtColor()
	if !ok {
		t.Fatal("no court colour estimated")
	}
	if frame.ColorDist(got, synth.CourtColor) > 40 {
		t.Fatalf("estimated court colour %v too far from true %v", got, synth.CourtColor)
	}
}

func TestCourtBallotCloseUpHeavyVideo(t *testing.T) {
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

// TestCourtBallotTieGoesToCourt: a video with as many voting frames
// dominated by the court colour as by a saturated backdrop must elect the
// court, whose frames hold its white lines, whether the backdrop's colour
// cell orders before or after the court's and whether the backdrop comes
// first or last.
func TestCourtBallotTieGoesToCourt(t *testing.T) {
	court, _, _, _, err := synth.RenderTennisShot(synth.DefaultConfig(29), "rally", 8)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := recomputedColors(court).courtColor()
	if !ok || frame.ColorDist(want, synth.CourtColor) > 40 {
		t.Fatalf("court-only estimate = %v, %t", want, ok)
	}
	for _, c := range []frame.RGB{{R: 200, G: 40, B: 40}, {R: 20, G: 60, B: 200}} {
		backdrop := flatFrames(c, len(court), 30)
		for name, frames := range map[string][]*frame.Image{
			"court first":    append(append([]*frame.Image(nil), court...), backdrop...),
			"backdrop first": append(append([]*frame.Image(nil), backdrop...), court...),
		} {
			var b courtBallot
			for _, fc := range recomputedColors(frames) { // every frame votes
				b.add(fc)
			}
			other, _ := recomputedColors(backdrop).courtColor()
			if b.votes[want] != b.votes[other] {
				t.Fatalf("fixture: backdrop %v, %s: votes %v do not tie", c, name, b.votes)
			}
			if got, ok := recomputedColors(frames).courtColor(); !ok || got != want {
				t.Errorf("backdrop %v, %s: tied vote elected %v, want the court's %v", c, name, got, want)
			}
		}
	}
}

func TestCourtBallotNoDominant(t *testing.T) {
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
	d := detector{threshold: Threshold}
	im := frame.New(16, 16)
	if _, cut := d.feed(frame.HistogramOf(im, bins)); cut {
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
