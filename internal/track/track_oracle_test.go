package track

import (
	"reflect"
	"testing"

	"repro/internal/frame"
	"repro/internal/synth"
)

// The tracker the package shipped before the window-bounded one: every
// frame gets a full-frame mask (foreground only inside the search window),
// a full-frame Open, full-frame labelling and a copied-out sub-mask. Kept
// only as the oracle the windowed tracker is checked against.

type refTracker struct {
	cfg   config
	bg    Background
	pos   Observation
	scale float64
}

func refObserve(mask *frame.Mask, im *frame.Image, c frame.Component, frameIdx int) Observation {
	cx, cy := c.Centroid()
	sub := &frame.Mask{W: c.BBox.W(), H: c.BBox.H(), Bits: make([]bool, c.BBox.W()*c.BBox.H())}
	for y := c.BBox.Y0; y < c.BBox.Y1; y++ {
		for x := c.BBox.X0; x < c.BBox.X1; x++ {
			sub.Bits[(y-c.BBox.Y0)*sub.W+(x-c.BBox.X0)] = mask.Bits[y*mask.W+x]
		}
	}
	shape := frame.ShapeOfRect(sub, frame.Rect{X1: sub.W, Y1: sub.H})
	shape.CX += float64(c.BBox.X0)
	shape.CY += float64(c.BBox.Y0)
	shape.BBox = frame.Rect{
		X0: shape.BBox.X0 + c.BBox.X0, Y0: shape.BBox.Y0 + c.BBox.Y0,
		X1: shape.BBox.X1 + c.BBox.X0, Y1: shape.BBox.Y1 + c.BBox.Y0,
	}
	h := frame.NewHistogram(8)
	h.AddRegion(im, shape.BBox)
	dom, _ := h.Peak()
	return Observation{Frame: frameIdx, Found: true, X: cx, Y: cy, Shape: shape, Dominant: dom}
}

func (t *refTracker) feed(im *frame.Image, frameIdx int) Observation {
	predX := t.pos.X + t.pos.VX
	predY := t.pos.Y + t.pos.VY
	r := t.cfg.searchRadius
	window := frame.Rect{X0: int(predX) - r, Y0: int(predY) - r, X1: int(predX) + r, Y1: int(predY) + r}
	mask := refQuadSegment(im, t.bg, window, t.cfg).ErodeInto(new(frame.Mask)).DilateInto(new(frame.Mask))
	minArea := max(int(float64(t.cfg.minArea)*t.scale*t.scale), 4)
	best, ok := selectComponent(new(frame.Labeler).Components(mask), predX, predY, minArea)
	if !ok {
		t.pos = Observation{Frame: frameIdx, X: predX, Y: predY, VX: t.pos.VX, VY: t.pos.VY}
		return t.pos
	}
	obs := refObserve(mask, im, best, frameIdx)
	obs.VX = obs.X - t.pos.X
	obs.VY = obs.Y - t.pos.Y
	t.pos = obs
	return obs
}

func refTrackShot(frames []*frame.Image, cfg config) ShotResult {
	var res ShotResult
	first := frames[0]
	res.Background = backgroundOf(first, cfg)
	mask := refQuadSegment(first, res.Background, first.Bounds(), cfg).ErodeInto(new(frame.Mask)).DilateInto(new(frame.Mask))
	var lower, upper []frame.Component
	for _, c := range new(frame.Labeler).Components(mask) {
		if _, cy := c.Centroid(); cy >= float64(first.H)/2 {
			lower = append(lower, c)
		} else {
			upper = append(upper, c)
		}
	}
	sortByArea(lower)
	sortByArea(upper)
	start := func(comps []frame.Component, scale float64) *refTracker {
		for _, c := range comps {
			if c.Area >= int(float64(cfg.minArea)*scale*scale) {
				return &refTracker{cfg: cfg, bg: res.Background, pos: refObserve(mask, first, c, 0), scale: scale}
			}
		}
		return nil
	}
	near, far := start(lower, 1.0), start(upper, 0.55)
	for i, im := range frames {
		for _, p := range []struct {
			tr *Track
			t  *refTracker
		}{{&res.Near, near}, {&res.Far, far}} {
			switch {
			case p.t == nil:
				p.tr.Obs = append(p.tr.Obs, Observation{Frame: i})
				if i > 0 {
					p.tr.LostFrames++
				}
			case i == 0:
				p.tr.Obs = append(p.tr.Obs, p.t.pos)
			default:
				obs := p.t.feed(im, i)
				p.tr.Obs = append(p.tr.Obs, obs)
				if !obs.Found {
					p.tr.LostFrames++
				}
			}
		}
	}
	return res
}

// The windowed tracker must report, float for float, what the full-frame
// one does: on every script, with the players at the frame's edges (the
// window is clipped there), through an occlusion (coasting), and with a
// search radius larger than the frame.
func TestWindowedTrackerMatchesFullFrame(t *testing.T) {
	type shot struct {
		name   string
		frames []*frame.Image
		cfg    config
	}
	var shots []shot
	for i, script := range []string{"rally", "net-approach", "service"} {
		frames, _, _ := renderShot(t, script, 40, int64(60+i))
		shots = append(shots, shot{script, frames, defaults})
	}
	occluded, _, _ := renderShot(t, "rally", 30, 9)
	probe := trackFrames(occluded, defaults)
	for i := 10; i < 14; i++ {
		p := probe.Near.Obs[i]
		occluded[i].FillRect(frame.Rect{X0: int(p.X) - 12, Y0: int(p.Y) - 18, X1: int(p.X) + 12, Y1: int(p.Y) + 18}, synth.CourtColor)
	}
	shots = append(shots, shot{"occluded", occluded, defaults})
	wide, _, _ := renderShot(t, "rally", 12, 63)
	beyond := defaults
	beyond.searchRadius = 400
	shots = append(shots, shot{"radius beyond the frame", wide, beyond})
	tight, _, _ := renderShot(t, "net-approach", 25, 64)
	six := defaults
	six.searchRadius = 6
	shots = append(shots, shot{"radius 6", tight, six})

	for _, s := range shots {
		got, want := trackFrames(s.frames, s.cfg), refTrackShot(s.frames, s.cfg)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: windowed tracking differs from the full-frame oracle", s.name)
			for i := range want.Near.Obs {
				if got.Near.Obs[i] != want.Near.Obs[i] || got.Far.Obs[i] != want.Far.Obs[i] {
					t.Logf("first difference at frame %d:\n got %+v / %+v\nwant %+v / %+v", i,
						got.Near.Obs[i], got.Far.Obs[i], want.Near.Obs[i], want.Far.Obs[i])
					break
				}
			}
		}
		if want.Near.LostFrames == len(want.Near.Obs)-1 {
			t.Errorf("%s: the oracle never found the near player; the comparison is vacuous", s.name)
		}
		if s.name == "occluded" && want.Near.LostFrames == 0 {
			t.Errorf("%s: the oracle never coasted; the comparison is vacuous", s.name)
		}
	}
}

// After the first frames of a shot have sized the scratch, a Feed allocates
// nothing, found or coasting.
func TestFeedAllocations(t *testing.T) {
	frames, _, _ := renderShot(t, "rally", 30, 65)
	cfg := defaults
	res := trackFrames(frames[:2], cfg)
	tr := newTracker(cfg, res.Near.Obs[1], 1, &scratch{bg: newBGTable(&res.Background, &cfg)})
	tr.Feed(frames[2], 2)
	tr.Feed(frames[3], 3)
	i := 4
	allocs := testing.AllocsPerRun(20, func() {
		if obs := tr.Feed(frames[i], i); !obs.Found {
			t.Fatalf("frame %d: player lost", i)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("Tracker.Feed allocates %.0f times a frame in steady state, want 0", allocs)
	}
	blank := frame.New(frames[0].W, frames[0].H)
	blank.Fill(frame.RGB{R: 40, G: 130, B: 60})
	if allocs := testing.AllocsPerRun(5, func() { tr.Feed(blank, i) }); allocs != 0 {
		t.Errorf("a coasting Feed allocates %.0f times, want 0", allocs)
	}
}

// The per-pixel segmentation the package shipped before the summed-area
// table and the background tables: every quadtree block's statistics from a
// pass over its pixels, every membership test a float test per cluster.
// Kept only as the oracle the kernels are checked against.

// foregroundPixel reports whether one pixel is foreground under the model.
func foregroundPixel(c frame.RGB, bg *Background, cfg *config) bool {
	l := frame.Luma(c)
	if l < cfg.lumaMin || l > cfg.lumaMax {
		return false
	}
	return !bg.Match(c, cfg.courtK, cfg.minStd)
}

// refQuadSegment is the quadtree segmentation of the window r through
// foregroundPixel and StatsOfRegion, as a mask of the whole frame with
// foreground only inside r.
func refQuadSegment(im *frame.Image, bg Background, r frame.Rect, cfg config) *frame.Mask {
	mask := &frame.Mask{W: im.W, H: im.H, Bits: make([]bool, im.W*im.H)}
	var split func(b frame.Rect)
	split = func(b frame.Rect) {
		if b.Empty() {
			return
		}
		if b.W() > cfg.quadMinBlock || b.H() > cfg.quadMinBlock {
			s := frame.StatsOfRegion(im, b)
			lim := 2.5 * cfg.minStd
			if s.N == 0 || bg.Match(s.Mean(), cfg.courtK, cfg.minStd) && s.StdR < lim && s.StdG < lim && s.StdB < lim {
				return
			}
			mx, my := (b.X0+b.X1)/2, (b.Y0+b.Y1)/2
			split(frame.Rect{X0: b.X0, Y0: b.Y0, X1: mx, Y1: my})
			split(frame.Rect{X0: mx, Y0: b.Y0, X1: b.X1, Y1: my})
			split(frame.Rect{X0: b.X0, Y0: my, X1: mx, Y1: b.Y1})
			split(frame.Rect{X0: mx, Y0: my, X1: b.X1, Y1: b.Y1})
			return
		}
		for y := b.Y0; y < b.Y1; y++ {
			for x := b.X0; x < b.X1; x++ {
				o := im.Offset(x, y)
				if foregroundPixel(frame.RGB{R: im.Pix[o], G: im.Pix[o+1], B: im.Pix[o+2]}, &bg, &cfg) {
					mask.Bits[y*mask.W+x] = true
				}
			}
		}
	}
	split(r.Clip(im))
	return mask
}
