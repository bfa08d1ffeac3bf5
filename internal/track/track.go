// Package track implements the paper's "tennis detector": it segments and
// tracks the tennis players within a playing shot and extracts the shape
// features of the segmented player's binary representation.
//
// Following the paper: "Using estimated statistics of the tennis field
// color, the algorithm does the initial quadratic segmentation of the first
// image of a video sequence classified as a playing shot. In the next
// frames, we predict the player position and search for a similar region in
// the neighborhood of the initially detected player." The "quadratic
// segmentation" is realized as a quadtree split: homogeneous blocks
// matching a background colour model are discarded wholesale, heterogeneous
// blocks are subdivided, and only leaf blocks are tested per pixel.
//
// Per frame the detector emits the player's position, dominant colour, and
// the standard shape features (mass centre, area, bounding box,
// orientation, eccentricity) via frame.Shape.
package track

import (
	"math"
	"sort"

	"repro/internal/frame"
)

// config is the tracker's tuning. The detector runs defaults; the set is a
// value rather than constants so that the oracle tests and FuzzQuadSegment
// can vary each parameter. DESIGN.md §6 records the search-radius sweep
// that chose searchRadius.
type config struct {
	// courtK is the std-deviation multiplier for background membership.
	courtK float64
	// minStd floors the per-channel deviation of background clusters so
	// sensor noise does not create foreground.
	minStd float64
	// lumaMin and lumaMax bound foreground luminance: pixels brighter than
	// lumaMax are court lines / net tape, darker than lumaMin net band or
	// shadow.
	lumaMin, lumaMax float64
	// quadMinBlock is the smallest quadtree block subdivided; blocks at or
	// below this size are tested per pixel.
	quadMinBlock int
	// searchRadius is the half-size of the prediction search window.
	searchRadius int
	// minArea is the smallest component accepted as the (near) player; the
	// far player's gate scales it by the square of its scale.
	minArea int
	// gridBlocks is the background-estimation grid resolution per axis.
	gridBlocks int
	// clusterTol is the mean-colour distance within which two grid blocks
	// belong to the same background cluster.
	clusterTol float64
	// minClusterBlocks is the minimum number of grid blocks for a cluster
	// to count as background.
	minClusterBlocks int
}

// defaults is the tuning for 160x120 broadcast frames.
var defaults = config{
	courtK:           3,
	minStd:           6,
	lumaMin:          50,
	lumaMax:          225,
	quadMinBlock:     8,
	searchRadius:     24,
	minArea:          24,
	gridBlocks:       8,
	clusterTol:       35,
	minClusterBlocks: 4,
}

// Background is a set of colour clusters covering the static scene (court
// surface, apron, stands); pixels matching any cluster are not foreground.
type Background struct {
	Clusters []frame.ColorStats
}

// Match reports whether the colour belongs to any background cluster.
func (b *Background) Match(c frame.RGB, k, minStd float64) bool {
	for i := range b.Clusters {
		if b.Clusters[i].Within(c, k, minStd) {
			return true
		}
	}
	return false
}

// estimateBackground builds the background colour model from a summed-area
// table of one whole frame by clustering the mean colours of a
// gridBlocks×gridBlocks partition. Large homogeneous clusters (the court and
// its surround) become background; small ones (players, lines) are ignored.
// This realizes the "estimated statistics of the tennis field color" of the
// paper without requiring a calibrated court model. Block edges are
// proportional (bx*W/n), so the grid covers every pixel at any size; on a
// frame narrower or shorter than the grid some blocks are empty, and an
// empty block does not vote.
func estimateBackground(sums *frame.SumTable, cfg config) Background {
	n := cfg.gridBlocks
	win := sums.Window()
	w, h := win.W(), win.H()
	blocks := make([]frame.ColorStats, 0, n*n)
	for by := 0; by < n; by++ {
		for bx := 0; bx < n; bx++ {
			r := frame.Rect{X0: bx * w / n, Y0: by * h / n, X1: (bx + 1) * w / n, Y1: (by + 1) * h / n}
			if s := sums.Stats(r.Shift(win.X0, win.Y0)); s.N > 0 {
				blocks = append(blocks, s)
			}
		}
	}
	// Greedy clustering by mean colour.
	type cluster struct {
		members []frame.ColorStats
		mean    frame.RGB
	}
	var clusters []*cluster
	for _, b := range blocks {
		m := b.Mean()
		var best *cluster
		bestD := cfg.clusterTol
		for _, cl := range clusters {
			if d := frame.ColorDist(m, cl.mean); d <= bestD {
				best, bestD = cl, d
			}
		}
		if best == nil {
			clusters = append(clusters, &cluster{members: []frame.ColorStats{b}, mean: m})
			continue
		}
		best.members = append(best.members, b)
		// Update the running mean colour.
		var sr, sg, sb float64
		for _, s := range best.members {
			sr += s.MeanR
			sg += s.MeanG
			sb += s.MeanB
		}
		k := float64(len(best.members))
		best.mean = frame.RGB{R: uint8(sr / k), G: uint8(sg / k), B: uint8(sb / k)}
	}
	var bg Background
	for _, cl := range clusters {
		if len(cl.members) < cfg.minClusterBlocks {
			continue
		}
		bg.Clusters = append(bg.Clusters, mergeStats(cl.members))
	}
	return bg
}

// mergeStats pools per-block statistics into one cluster model.
func mergeStats(ss []frame.ColorStats) frame.ColorStats {
	var out frame.ColorStats
	var n float64
	for _, s := range ss {
		w := float64(s.N)
		out.MeanR += s.MeanR * w
		out.MeanG += s.MeanG * w
		out.MeanB += s.MeanB * w
		n += w
	}
	if n == 0 {
		return out
	}
	out.MeanR /= n
	out.MeanG /= n
	out.MeanB /= n
	// Pooled deviation: within-block variance plus between-block spread.
	var vr, vg, vb float64
	for _, s := range ss {
		w := float64(s.N) / n
		vr += w * (s.StdR*s.StdR + (s.MeanR-out.MeanR)*(s.MeanR-out.MeanR))
		vg += w * (s.StdG*s.StdG + (s.MeanG-out.MeanG)*(s.MeanG-out.MeanG))
		vb += w * (s.StdB*s.StdB + (s.MeanB-out.MeanB)*(s.MeanB-out.MeanB))
	}
	out.StdR, out.StdG, out.StdB = math.Sqrt(vr), math.Sqrt(vg), math.Sqrt(vb)
	out.N = int(n)
	return out
}

// bgTable is the foreground test of one background model and config as
// lookup tables. Membership is tabulated per channel: bit i of word w of
// r[v*words+w] is set iff cluster 64w+i passes ColorStats.ChannelWithin for
// red value v, and likewise g and b. Within is the conjunction of the three
// channel tests, so a colour matches cluster i iff bit i is set in all three
// of its channel entries, and it matches the background iff r&g&b is non-zero
// in some word: Background.Match's answer, float test for float test, at
// three loads and an AND per word of 64 clusters.
type bgTable struct {
	words            int
	r, g, b          []uint64
	lumaMin, lumaMax float64
	// means are the clusters' mean colours, for nearest.
	means []frame.RGB
	// lineG is the least green of a colour brighter than lumaMax (256 if
	// none is): bright's quick test.
	lineG int
}

func newBGTable(bg *Background, cfg *config) *bgTable {
	words := (len(bg.Clusters) + 63) / 64
	cells := make([]uint64, 3*256*words)
	t := &bgTable{
		words:   words,
		r:       cells[:256*words],
		g:       cells[256*words : 512*words],
		b:       cells[512*words:],
		lumaMin: cfg.lumaMin,
		lumaMax: cfg.lumaMax,
		means:   make([]frame.RGB, len(bg.Clusters)),
	}
	for t.lineG < 256 && frame.Luma(frame.RGB{R: 255, G: uint8(t.lineG), B: 255}) <= t.lumaMax {
		t.lineG++
	}
	for i, cl := range bg.Clusters {
		t.means[i] = cl.Mean()
		word, bit := i/64, uint64(1)<<(i%64)
		for ch, tab := range [3][]uint64{t.r, t.g, t.b} {
			for v := 0; v < 256; v++ {
				if cl.ChannelWithin(ch, uint8(v), cfg.courtK, cfg.minStd) {
					tab[v*words+word] |= bit
				}
			}
		}
	}
	return t
}

// match reports whether the colour belongs to any background cluster.
func (t *bgTable) match(cr, cg, cb uint8) bool {
	w := t.words
	r, g, b := t.r[int(cr)*w:][:w], t.g[int(cg)*w:][:w], t.b[int(cb)*w:][:w]
	for i := range r {
		if r[i]&g[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// nearest is the index of the cluster whose mean colour is nearest c.
func (t *bgTable) nearest(c frame.RGB) int {
	best, bestD := -1, math.Inf(1)
	for i, m := range t.means {
		if d := frame.ColorDist(c, m); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// foreground reports whether one pixel is foreground: inside the luminance
// bounds and in no background cluster.
func (t *bgTable) foreground(cr, cg, cb uint8) bool {
	l := frame.Luma(frame.RGB{R: cr, G: cg, B: cb})
	if l < t.lumaMin || l > t.lumaMax {
		return false
	}
	return !t.match(cr, cg, cb)
}

// blockIsBackground tests whether a whole block can be pruned.
func blockIsBackground(s frame.ColorStats, bg *bgTable, cfg *config) bool {
	if s.N == 0 {
		return true
	}
	if m := s.Mean(); !bg.match(m.R, m.G, m.B) {
		return false
	}
	// Internally heterogeneous blocks may hide a small player against a
	// matching mean; require low spread to prune.
	lim := 2.5 * cfg.minStd
	return s.StdR < lim && s.StdG < lim && s.StdB < lim
}

// quadSegmenter is one quadtree ("quadratic") segmentation in progress:
// blocks whose colour statistics match a background cluster are discarded
// whole; heterogeneous blocks are split until quadMinBlock, then tested per
// pixel. A block's colour statistics are read from sums, a summed-area
// table over the window being segmented, and leaf pixels are tested through
// bg's tables. The mask may cover just the window: its pixel (0, 0) is
// image pixel (ox, oy), and only blocks inside it are split.
type quadSegmenter struct {
	im     *frame.Image
	sums   *frame.SumTable
	bg     *bgTable
	cfg    *config
	mask   *frame.Mask
	ox, oy int
}

func (q *quadSegmenter) split(b frame.Rect) {
	if b.Empty() {
		return
	}
	if b.W() > q.cfg.quadMinBlock || b.H() > q.cfg.quadMinBlock {
		// A block is all-background if its mean matches a cluster and
		// it is internally homogeneous.
		if blockIsBackground(q.sums.Stats(b), q.bg, q.cfg) {
			return
		}
		mx := (b.X0 + b.X1) / 2
		my := (b.Y0 + b.Y1) / 2
		q.split(frame.Rect{X0: b.X0, Y0: b.Y0, X1: mx, Y1: my})
		q.split(frame.Rect{X0: mx, Y0: b.Y0, X1: b.X1, Y1: my})
		q.split(frame.Rect{X0: b.X0, Y0: my, X1: mx, Y1: b.Y1})
		q.split(frame.Rect{X0: mx, Y0: my, X1: b.X1, Y1: b.Y1})
		return
	}
	for y := b.Y0; y < b.Y1; y++ {
		pix := q.im.Pix[q.im.Offset(b.X0, y):q.im.Offset(b.X1, y)]
		out := q.mask.Bits[(y-q.oy)*q.mask.W+b.X0-q.ox:][:b.W()]
		for x := range out {
			if q.bg.foreground(pix[3*x], pix[3*x+1], pix[3*x+2]) {
				out[x] = true
			}
		}
	}
}

// scratch is the detector's working memory for one shot: the background
// tables of the shot's model, the summed-area table and the masks of the
// three morphology stages over the window last segmented, the labelling
// buffers and the dominant-colour histogram. Both trackers of a shot share
// one, so after a shot's first frames a Feed allocates nothing.
type scratch struct {
	bg                  *bgTable
	sums                frame.SumTable
	seg, eroded, opened frame.Mask
	labeler             frame.Labeler
	hist                *frame.Histogram
}

// segment segments the window r of im (clipped to the image), opens the
// mask and labels it, returning the components in frame coordinates. Only
// the window is segmented, eroded, dilated and labelled — outside it no bit
// can be set, and since erosion already treats what lies beyond a mask's
// edge as unset the window needs no apron — so the work scales with the
// search window, not with the frame.
func (s *scratch) segment(im *frame.Image, r frame.Rect, cfg *config) []frame.Component {
	s.sums.Reset(im, r)
	return s.segmentSums(im, cfg)
}

// segmentSums is segment over the window s.sums was last built on.
func (s *scratch) segmentSums(im *frame.Image, cfg *config) []frame.Component {
	r := s.sums.Window()
	s.seg.Reset(r.W(), r.H())
	q := quadSegmenter{im: im, sums: &s.sums, bg: s.bg, cfg: cfg, mask: &s.seg, ox: r.X0, oy: r.Y0}
	q.split(r)
	s.seg.ErodeInto(&s.eroded).DilateInto(&s.opened)
	comps := s.labeler.Components(&s.opened)
	for i := range comps {
		c := &comps[i]
		c.BBox = c.BBox.Shift(r.X0, r.Y0)
		c.SumX += int64(r.X0) * int64(c.Area)
		c.SumY += int64(r.Y0) * int64(c.Area)
	}
	return comps
}

// observe builds a full observation (position, shape features rebased to
// frame coordinates, dominant colour) from a component of the window just
// segmented.
func (s *scratch) observe(im *frame.Image, c frame.Component, frameIdx int) Observation {
	cx, cy := c.Centroid()
	win := s.sums.Window()
	shape := frame.ShapeOfRect(&s.opened, c.BBox.Shift(-win.X0, -win.Y0))
	shape.CX += float64(c.BBox.X0)
	shape.CY += float64(c.BBox.Y0)
	shape.BBox = shape.BBox.Shift(c.BBox.X0, c.BBox.Y0)
	if s.hist == nil {
		s.hist = frame.NewHistogram(8)
	}
	s.hist.Reset()
	s.hist.AddRegion(im, shape.BBox)
	dom, _ := s.hist.Peak()
	return Observation{
		Frame: frameIdx, Found: true,
		X: cx, Y: cy,
		Shape: shape, Dominant: dom,
	}
}

// Observation is the per-frame output of the tennis detector for one
// player.
type Observation struct {
	// Frame is the frame index within the shot.
	Frame int
	// Found reports whether the player was re-acquired this frame; when
	// false, X/Y hold the coasted prediction and Shape is zero.
	Found bool
	// X, Y is the player's mass centre.
	X, Y float64
	// VX, VY is the velocity estimate (pixels/frame): the change since
	// the frame before, or, the first frame the player is found again after
	// a loss, the mean change per frame since they were last found.
	VX, VY float64
	// Shape holds the standard shape features of the segmented player.
	Shape frame.Shape
	// Dominant is the player's dominant (shirt) colour.
	Dominant frame.RGB
}

// Track is the trajectory of one player across a shot.
type Track struct {
	// Obs has one entry per processed frame.
	Obs []Observation
	// LostFrames counts frames where the player was not re-acquired.
	LostFrames int
}

// Re-acquisition. A player the tracker has lost is searched for in a
// window around the prediction, coasted in court coordinates, that grows
// with every lost frame, and a component is taken for the player only if
// the re-acquisition gate admits it: no larger than reacquireArea times the
// largest area the player was found with, and dominated by a colour within
// reacquireColour of the player's first dominant (shirt) colour. An
// occluder or the other player standing over the prediction is refused.
const (
	// lostGrowth is how many pixels the search window grows a side for
	// every frame the player has been lost: about the farthest a player
	// moves in a frame.
	lostGrowth = 6
	// reacquireArea bounds a re-acquired component's area, in multiples of
	// the largest area the player was found with.
	reacquireArea = 2
	// reacquireColour is the largest distance from the player's first
	// dominant colour to a re-acquired component's.
	reacquireColour = 60
	// cutMargin is how near the frame's edge a component reaches to count
	// as cut by it: the opening strips a row or two off a component there.
	cutMargin = 2
)

// Tracker follows a single player with a constant-velocity predictor and a
// local search window, as the paper describes. It predicts in court
// coordinates (see Camera), so a moving camera does not read as player
// motion. A player whose prediction has left the frame by more than
// searchRadius is reported absent (not found) without a search.
type Tracker struct {
	cfg config
	// seen is the last observation the player was found in, as the
	// camera saw it, and sx, sy its court position.
	seen   Observation
	sx, sy float64
	// x, y is the court position of the last prediction (seen's, or where
	// the player coasted since) and vx, vy the court velocity.
	x, y, vx, vy float64
	// size and shirt are the re-acquisition gate's: the largest area the
	// player was found with and their first dominant colour.
	size  int
	shirt frame.RGB
	// lost counts the frames since seen.
	lost  int
	scale float64 // 1.0 near player, <1 far player (smaller area gate)
	s     *scratch
}

// newTracker builds a tracker from an initial observation, seen through
// cam, on s, whose background tables must have been built for cfg. scale
// shrinks the component-area gate for the smaller far player (1 for the
// near player, ~0.5 for the far player).
func newTracker(cfg config, initial Observation, cam Camera, scale float64, s *scratch) *Tracker {
	t := &Tracker{cfg: cfg, seen: initial, size: initial.Shape.Area, shirt: initial.Dominant, scale: scale, s: s}
	t.x, t.y = cam.Court(initial.X, initial.Y)
	t.sx, t.sy = t.x, t.y
	return t
}

// minArea is the component-area gate for a player tracked at scale.
func minArea(cfg *config, scale float64) int {
	return max(int(float64(cfg.minArea)*scale*scale), 4)
}

// Feed processes the next frame, seen through cam, and returns the new
// observation.
func (t *Tracker) Feed(im *frame.Image, frameIdx int, cam Camera) Observation {
	predX, predY, in := t.predict(im, cam)
	if !in {
		return t.coast(frameIdx, predX, predY)
	}
	comps := t.s.segment(im, t.window(predX, predY), &t.cfg)
	for {
		i, ok := selectComponent(comps, predX, predY, minArea(&t.cfg, t.scale))
		if !ok {
			return t.coast(frameIdx, predX, predY)
		}
		if obs := t.s.observe(im, comps[i], frameIdx); t.admits(obs) {
			return t.found(im, cam, obs)
		}
		comps[i] = comps[len(comps)-1]
		comps = comps[:len(comps)-1]
	}
}

// predict moves the court prediction on by a frame and returns where cam
// shows it, and whether that is within searchRadius of im.
func (t *Tracker) predict(im *frame.Image, cam Camera) (x, y float64, in bool) {
	t.x, t.y = t.x+t.vx, t.y+t.vy
	x, y = cam.frame(t.x, t.y)
	r := float64(t.cfg.searchRadius)
	return x, y, x >= -r && y >= -r && x < float64(im.W)+r && y < float64(im.H)+r
}

// window is the search window around the prediction (x, y): searchRadius
// a side, and lostGrowth more for every frame the player has been lost.
func (t *Tracker) window(x, y float64) frame.Rect {
	r := t.cfg.searchRadius + lostGrowth*t.lost
	return frame.Rect{X0: int(x) - r, Y0: int(y) - r, X1: int(x) + r, Y1: int(y) + r}
}

// coast keeps the player on the prediction, seen at (x, y).
func (t *Tracker) coast(frameIdx int, x, y float64) Observation {
	t.lost++
	return Observation{
		Frame: frameIdx, Found: false,
		X: x, Y: y,
		VX: t.seen.VX, VY: t.seen.VY,
	}
}

// found takes obs, the player found in im seen through cam. A component
// within cutMargin of the frame's edge is cut by it: it shows only part of
// the player, and its centre is off theirs along the cut axis, so along
// that axis the court position stays the prediction and the player is taken
// to stand still. An observation after lost frames carries the mean
// velocity since seen.
func (t *Tracker) found(im *frame.Image, cam Camera, obs Observation) Observation {
	k := float64(t.lost + 1)
	obs.VX = (obs.X - t.seen.X) / k
	obs.VY = (obs.Y - t.seen.Y) / k
	x, y := cam.Court(obs.X, obs.Y)
	if b := obs.Shape.BBox; b.X0 > cutMargin && b.X1 < im.W-cutMargin {
		t.x, t.vx = x, (x-t.sx)/k
	} else {
		t.vx = 0
	}
	if b := obs.Shape.BBox; b.Y0 > cutMargin && b.Y1 < im.H-cutMargin {
		t.y, t.vy = y, (y-t.sy)/k
	} else {
		t.vy = 0
	}
	t.sx, t.sy = t.x, t.y
	t.seen, t.lost = obs, 0
	t.size = max(t.size, obs.Shape.Area)
	return obs
}

// admits is the re-acquisition gate: it admits any observation while the
// player is tracked, and after a loss only one of the player's size and
// shirt colour.
func (t *Tracker) admits(obs Observation) bool {
	return t.lost == 0 ||
		obs.Shape.Area <= reacquireArea*t.size && frame.ColorDist(obs.Dominant, t.shirt) <= reacquireColour
}

// selectComponent picks the component nearest the prediction among those
// meeting the area gate, scoring by area/(1+dist), and returns its index.
func selectComponent(comps []frame.Component, px, py float64, minArea int) (int, bool) {
	bestScore := -1.0
	best := -1
	for i, c := range comps {
		if c.Area < minArea {
			continue
		}
		cx, cy := c.Centroid()
		d := math.Hypot(cx-px, cy-py)
		score := float64(c.Area) / (1 + d)
		if score > bestScore {
			bestScore, best = score, i
		}
	}
	return best, best >= 0
}

// ShotResult is the full output of the tennis detector over a shot.
type ShotResult struct {
	// Near and Far are the two player tracks (near = lower half).
	Near, Far Track
	// Background is the colour model estimated from the first frame.
	Background Background
	// Moves are the shot's changes of camera, in frame order; before the
	// first the shot shows the standard framing, and an unmoved camera
	// makes none.
	Moves []Move
}

// Camera is the camera frame i of the shot is seen through.
func (r *ShotResult) Camera(i int) Camera {
	k := sort.Search(len(r.Moves), func(k int) bool { return r.Moves[k].Frame > i })
	if k == 0 {
		return standard
	}
	return r.Moves[k-1].Camera
}

// ShotTracker runs the tennis detector shot after shot through one working
// memory (see scratch; its whole-frame summed-area table alone is about
// 1 MB at 160×120), which nothing it returns points into. The zero value is
// ready to use. A ShotTracker is not safe for concurrent use.
type ShotTracker struct {
	s scratch
}

// TrackShot runs the complete tennis detector over the playing shot
// [start, end) of src: background estimation and initial quadratic
// segmentation on the first frame, court registration on every frame, then
// predict-and-search tracking of both players. It reads the shot in one
// scan and keeps no frame past its Scan call, so it holds one decoded
// frame, never the shot. The only error is the source's.
func (t *ShotTracker) TrackShot(src frame.Source, start, end int) (ShotResult, error) {
	return t.trackShot(src, start, end, defaults)
}

// trackShot is TrackShot under cfg.
func (t *ShotTracker) trackShot(src frame.Source, start, end int, cfg config) (ShotResult, error) {
	var res ShotResult
	s := &t.s
	var near, far *Tracker
	cam := standard
	err := src.Scan(start, end, func(i int, im *frame.Image) error {
		if i == start {
			// One summed-area table of the first frame serves the
			// background estimate and the initial segmentation over the
			// whole frame.
			s.sums.Reset(im, im.Bounds())
			res.Background = estimateBackground(&s.sums, cfg)
			s.bg = newBGTable(&res.Background, &cfg)
		}
		if c := s.register(im, cam); c != cam {
			cam = c
			res.Moves = append(res.Moves, Move{Frame: i - start, Camera: cam})
		}
		if i > start {
			feedInto(&res.Near, near, im, i-start, cam)
			feedInto(&res.Far, far, im, i-start, cam)
			return nil
		}
		comps := s.segmentSums(im, &cfg)
		// Split candidates by vertical half: the broadcast camera always has
		// the near player in the lower half, the far player in the upper half.
		midY := float64(im.H) / 2
		var lower, upper []frame.Component
		for _, c := range comps {
			_, cy := c.Centroid()
			if cy >= midY {
				lower = append(lower, c)
			} else {
				upper = append(upper, c)
			}
		}
		sortByArea(lower)
		sortByArea(upper)
		near = s.initTracker(cfg, im, lower, cam, 1.0)
		far = s.initTracker(cfg, im, upper, cam, 0.55)
		res.Near.Obs = append(res.Near.Obs, firstObservation(near))
		res.Far.Obs = append(res.Far.Obs, firstObservation(far))
		return nil
	})
	return res, err
}

func feedInto(tr *Track, t *Tracker, im *frame.Image, i int, cam Camera) {
	if t == nil {
		tr.Obs = append(tr.Obs, Observation{Frame: i})
		tr.LostFrames++
		return
	}
	obs := t.Feed(im, i, cam)
	tr.Obs = append(tr.Obs, obs)
	if !obs.Found {
		tr.LostFrames++
	}
}

func firstObservation(t *Tracker) Observation {
	if t == nil {
		return Observation{}
	}
	return t.seen
}

// initTracker starts a tracker, sharing s, on the largest of comps (sorted
// by area) that passes the area gate.
func (s *scratch) initTracker(cfg config, im *frame.Image, comps []frame.Component, cam Camera, scale float64) *Tracker {
	for _, c := range comps {
		if c.Area >= minArea(&cfg, scale) {
			return newTracker(cfg, s.observe(im, c, 0), cam, scale, s)
		}
	}
	return nil
}

func sortByArea(cs []frame.Component) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Area > cs[j].Area })
}
