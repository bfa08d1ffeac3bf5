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
// only as the oracle the windowed tracker's segmentation and observations
// are checked against: prediction, gates and registration are the
// production Tracker's and scratch's.

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

// refFeed is t.Feed through the full-frame kernels over the model bg.
func refFeed(t *Tracker, bg Background, im *frame.Image, frameIdx int, cam Camera) Observation {
	predX, predY, in := t.predict(im, cam)
	if !in {
		return t.coast(frameIdx, predX, predY)
	}
	mask := refQuadSegment(im, bg, t.window(predX, predY), t.cfg).ErodeInto(new(frame.Mask)).DilateInto(new(frame.Mask))
	comps := new(frame.Labeler).Components(mask)
	for {
		i, ok := selectComponent(comps, predX, predY, minArea(&t.cfg, t.scale))
		if !ok {
			return t.coast(frameIdx, predX, predY)
		}
		if obs := refObserve(mask, im, comps[i], frameIdx); t.admits(obs) {
			return t.found(im, cam, obs)
		}
		comps[i] = comps[len(comps)-1]
		comps = comps[:len(comps)-1]
	}
}

func refTrackShot(frames []*frame.Image, cfg config) ShotResult {
	var res ShotResult
	first := frames[0]
	res.Background = backgroundOf(first, cfg)
	// Registration is not the oracle's business: it registers through the
	// production kernel.
	reg := &scratch{bg: newBGTable(&res.Background, &cfg)}
	cams := make([]Camera, len(frames))
	cam := standard
	for i, im := range frames {
		if c := reg.register(im, cam); c != cam {
			cam = c
			res.Moves = append(res.Moves, Move{Frame: i, Camera: c})
		}
		cams[i] = cam
	}
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
	start := func(comps []frame.Component, scale float64) *Tracker {
		for _, c := range comps {
			if c.Area >= minArea(&cfg, scale) {
				return newTracker(cfg, refObserve(mask, first, c, 0), cams[0], scale, nil)
			}
		}
		return nil
	}
	near, far := start(lower, 1.0), start(upper, 0.55)
	for i, im := range frames {
		for _, p := range []struct {
			tr *Track
			t  *Tracker
		}{{&res.Near, near}, {&res.Far, far}} {
			switch {
			case p.t == nil:
				p.tr.Obs = append(p.tr.Obs, Observation{Frame: i})
				if i > 0 {
					p.tr.LostFrames++
				}
			case i == 0:
				p.tr.Obs = append(p.tr.Obs, p.t.seen)
			default:
				obs := refFeed(p.t, res.Background, im, i, cams[i])
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

// After the first frames of a shot have sized the scratch (the first is
// segmented whole), registration and a Feed allocate nothing, found or
// coasting, however far the lost player's search window has grown.
func TestFeedAllocations(t *testing.T) {
	frames, _, _ := renderShot(t, "rally", 30, 65)
	cfg := defaults
	res := trackFrames(frames[:2], cfg)
	s := &scratch{bg: newBGTable(&res.Background, &cfg)}
	s.segment(frames[0], frames[0].Bounds(), &cfg)
	tr := newTracker(cfg, res.Near.Obs[1], standard, 1, s)
	tr.Feed(frames[2], 2, standard)
	tr.Feed(frames[3], 3, standard)
	i := 4
	allocs := testing.AllocsPerRun(20, func() {
		cam := s.register(frames[i], standard)
		if obs := tr.Feed(frames[i], i, cam); !obs.Found {
			t.Fatalf("frame %d: player lost", i)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("Tracker.Feed allocates %.0f times a frame in steady state, want 0", allocs)
	}
	blank := frame.New(frames[0].W, frames[0].H)
	blank.Fill(frame.RGB{R: 40, G: 130, B: 60})
	if allocs := testing.AllocsPerRun(30, func() { tr.Feed(blank, i, s.register(blank, standard)) }); allocs != 0 {
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
