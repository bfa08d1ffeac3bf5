// Package shotdet implements the paper's "segment detector": it partitions
// a video into shots using colour-histogram differences between
// neighbouring frames, and classifies each shot into one of four categories
// — tennis (court), close-up, audience, other — from the dominant colour,
// the amount of skin-coloured pixels, and entropy/mean/variance
// characteristics, exactly the feature set the paper describes.
//
// In the original system this detector ran as an external (black-box)
// program driven by the Feature Detector Engine; here the same
// implementation is callable in-process (white-box) and wrapped by
// cmd/segdet as a stdio black-box for the FDE.
package shotdet

import (
	"fmt"
	"math"

	"repro/internal/frame"
)

// Metric selects the histogram distance used for boundary detection.
type Metric int

// Supported histogram distances.
const (
	// MetricL1 is the sum of absolute bin differences (range [0, 2]).
	MetricL1 Metric = iota
	// MetricChiSquare is the chi-square distance (range [0, 2]).
	MetricChiSquare
)

// String names the metric.
func (m Metric) String() string {
	if m == MetricChiSquare {
		return "chi2"
	}
	return "l1"
}

// Config parameterizes boundary detection.
type Config struct {
	// Bins is the number of histogram bins per channel (default 8).
	Bins int
	// Metric selects the frame-distance function.
	Metric Metric
	// Threshold is the hard-cut distance threshold (default 0.35).
	Threshold float64
	// Adaptive, when set, replaces the fixed threshold with a local one:
	// a cut requires dist > mean + AdaptiveK*std over the trailing Window
	// distances, in addition to exceeding Threshold/2 as a noise floor.
	Adaptive bool
	// AdaptiveK is the adaptive multiplier (default 5).
	AdaptiveK float64
	// Window is the trailing window length for the adaptive rule
	// (default 24).
	Window int
	// MinShotLen suppresses boundaries closer than this many frames to
	// the previous boundary (default 6).
	MinShotLen int
	// GradualLow, when > 0, enables twin-threshold gradual-transition
	// detection: a run of inter-frame distances each above GradualLow
	// whose cumulative distance from the run's anchor frame exceeds
	// Threshold is reported as a gradual boundary.
	GradualLow float64
	// Workers bounds the goroutines a Sweeper uses to precompute
	// per-frame histograms (< 1 selects GOMAXPROCS, 1 forces sequential).
	// The detection result is identical at any setting.
	Workers int
}

// DefaultConfig returns the tuned defaults used by the experiments.
func DefaultConfig() Config {
	return Config{
		Bins:       8,
		Metric:     MetricL1,
		Threshold:  0.35,
		AdaptiveK:  5,
		Window:     24,
		MinShotLen: 6,
	}
}

func (c Config) withDefaults() Config {
	if c.Bins == 0 {
		c.Bins = 8
	}
	if c.Threshold == 0 {
		c.Threshold = 0.35
	}
	if c.AdaptiveK == 0 {
		c.AdaptiveK = 5
	}
	if c.Window == 0 {
		c.Window = 24
	}
	if c.MinShotLen == 0 {
		c.MinShotLen = 6
	}
	return c
}

// Boundary is a detected shot transition: the first frame of the new shot.
type Boundary struct {
	// Frame is the index of the first frame after the transition.
	Frame int
	// Dist is the histogram distance that triggered the detection.
	Dist float64
	// Gradual marks boundaries found by the twin-threshold rule.
	Gradual bool
}

// Detector detects shot boundaries in streaming fashion: feed frame
// histograms one at a time.
type Detector struct {
	cfg      Config
	prevHist *frame.Histogram
	frameIdx int
	lastCut  int
	recent   []float64 // trailing distances for the adaptive rule
	// gradual-transition state
	anchorHist *frame.Histogram
	runLen     int
	// distFn caches the metric dispatch so the per-frame distance call is a
	// direct function call instead of a config compare per frame.
	distFn func(a, b *frame.Histogram) float64
}

// FeedHistogram processes the next frame's histogram (with the detector's
// configured bin count) and reports a boundary ending at this frame if one is
// detected. The first frame never yields a boundary. Callers extract the
// histograms in parallel and keep only this cheap decision sequential.
func (d *Detector) FeedHistogram(h *frame.Histogram) (Boundary, bool) {
	idx := d.frameIdx
	d.frameIdx++
	if d.prevHist == nil {
		d.prevHist = h
		return Boundary{}, false
	}
	dist := d.distance(d.prevHist, h)
	prev := d.prevHist
	d.prevHist = h

	cut := false
	if d.cfg.Adaptive {
		mean, std := meanStd(d.recent)
		floor := d.cfg.Threshold / 2
		if len(d.recent) >= d.cfg.Window/2 && dist > mean+d.cfg.AdaptiveK*std && dist > floor {
			cut = true
		}
		if !cut {
			// Cut distances are outliers by definition; admitting them
			// into the window would inflate the local statistics and mask
			// cuts that follow shortly after.
			d.recent = append(d.recent, dist)
			if len(d.recent) > d.cfg.Window {
				d.recent = d.recent[1:]
			}
		}
	} else if dist > d.cfg.Threshold {
		cut = true
	}
	if cut {
		d.anchorHist, d.runLen = nil, 0
		if idx-d.lastCut < d.cfg.MinShotLen {
			return Boundary{}, false
		}
		d.lastCut = idx
		return Boundary{Frame: idx, Dist: dist}, true
	}

	// Twin-threshold gradual detection: while the inter-frame distance
	// stays above GradualLow a transition may be in progress; when the
	// distance settles back below GradualLow the transition has ended, and
	// the accumulated distance from the anchor (last stable frame) to the
	// current frame decides whether it was a real boundary.
	if d.cfg.GradualLow > 0 {
		if dist > d.cfg.GradualLow {
			if d.anchorHist == nil {
				d.anchorHist = prev
				d.runLen = 0
			}
			d.runLen++
		} else if d.anchorHist != nil {
			cum := d.distance(d.anchorHist, h)
			runLen := d.runLen
			d.anchorHist, d.runLen = nil, 0
			if cum > d.cfg.Threshold && runLen >= 2 && idx-d.lastCut >= d.cfg.MinShotLen {
				d.lastCut = idx
				return Boundary{Frame: idx, Dist: cum, Gradual: true}, true
			}
		}
	}
	return Boundary{}, false
}

func (d *Detector) distance(a, b *frame.Histogram) float64 {
	if d.distFn == nil {
		// Lazy so zero-value and struct-literal detectors (the Sweeper
		// resets itself this way every run) pick the metric up on first use.
		if d.cfg.Metric == MetricChiSquare {
			d.distFn = (*frame.Histogram).ChiSquare
		} else {
			d.distFn = (*frame.Histogram).L1Dist
		}
	}
	return d.distFn(a, b)
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// ahead is how many frames the boundary pass decodes before it consumes
// their histograms: one GOP at vidfmt's default, so the histograms of a
// batch spread over the workers while the frames held beyond the current
// shot stay within one restart interval of the codec.
const ahead = 12

// Sweeper runs the boundary detector over a frame source in one forward
// scan. Each frame is copied into the sweeper's window as it is decoded;
// every ahead frames, the batch's histograms — the dominant cost — are
// computed over cfg.Workers goroutines, and the stateful boundary decision
// consumes them in frame order. A Sweeper amortizes its scratch — the batch
// histograms, the window's frame buffers and the adaptive-rule window —
// across repeated runs, so a threshold sweep over the same footage pays the
// per-frame allocations once instead of once per configuration. The zero
// value is ready to use. A Sweeper is not safe for concurrent use.
type Sweeper struct {
	d     Detector
	hists []*frame.Histogram // batch scratch, recycled across batches and runs
	kept  []*frame.Histogram // taken out of hists while the detector held them
	win   window
	// The run in progress: the first frame whose histogram is not yet
	// consumed, the histogram workers and the visitor.
	next, workers int
	v             visitor
}

// spare removes and returns a kept histogram the detector no longer
// references, or nil.
func (s *Sweeper) spare() *frame.Histogram {
	for i, h := range s.kept {
		if h != s.d.prevHist && h != s.d.anchorHist {
			s.kept = append(s.kept[:i], s.kept[i+1:]...)
			return h
		}
	}
	return nil
}

// window holds copies of the consecutive frames [base, base+len(frames))
// that a pass still needs, recycling the buffers of the frames it drops.
type window struct {
	base   int
	frames []*frame.Image
	free   []*frame.Image
	peak   int // the most frames held at once since the last reset
}

// reset drops every frame and rebases the window at base.
func (w *window) reset(base int) {
	w.drop(w.base + len(w.frames))
	w.base = base
}

// push copies im in as the window's next frame, into a dropped frame's
// buffer when there is one.
func (w *window) push(im *frame.Image) {
	var buf *frame.Image
	if n := len(w.free); n > 0 {
		buf, w.free = w.free[n-1], w.free[:n-1]
	} else {
		buf = new(frame.Image)
	}
	if cap(buf.Pix) < len(im.Pix) {
		buf.Pix = make([]uint8, len(im.Pix))
	}
	buf.W, buf.H, buf.Pix = im.W, im.H, buf.Pix[:len(im.Pix)]
	copy(buf.Pix, im.Pix)
	w.frames = append(w.frames, buf)
	w.peak = max(w.peak, len(w.frames))
}

// at returns frame i, which the window must hold.
func (w *window) at(i int) *frame.Image { return w.frames[i-w.base] }

// drop releases every frame before to.
func (w *window) drop(to int) {
	k := min(max(to-w.base, 0), len(w.frames))
	w.free = append(w.free, w.frames[:k]...)
	n := copy(w.frames, w.frames[k:])
	clear(w.frames[n:])
	w.frames = w.frames[:n]
	w.base += k
}

// Held returns the most decoded frames the last run held at once.
func (s *Sweeper) Held() int { return s.win.peak }

// Detect returns the boundaries of frames under cfg. Through the Sweeper's
// recycled scratch the result is identical for every configuration and
// every reuse pattern; only the allocation profile changes.
func (s *Sweeper) Detect(frames []*frame.Image, cfg Config) []Boundary {
	bl := &boundaryList{win: &s.win}
	// An in-memory source cannot fail.
	_ = s.sweep(frame.Frames(frames), cfg, bl)
	return bl.out
}

// visitor consumes the boundary pass frame by frame: visit is called in
// frame order with every frame's histogram and the boundary, if one starts
// at that frame. When it is called the window holds every frame from its
// base up to the end of the frame's batch; the visitor drops what it no
// longer needs.
type visitor interface {
	visit(i int, h *frame.Histogram, b Boundary, cut bool)
}

// boundaryList is the visitor of Detect: it keeps the boundaries and none
// of the frames.
type boundaryList struct {
	win *window
	out []Boundary
}

func (bl *boundaryList) visit(i int, _ *frame.Histogram, b Boundary, cut bool) {
	if cut {
		bl.out = append(bl.out, b)
	}
	bl.win.drop(i + 1)
}

// sweep runs the boundary pass over src for v.
func (s *Sweeper) sweep(src frame.Source, cfg Config, v visitor) error {
	s.d = Detector{cfg: cfg.withDefaults(), recent: s.d.recent[:0]}
	s.win.reset(0)
	s.win.peak = 0
	s.next, s.workers, s.v = 0, cfg.Workers, v
	defer func() { s.v = nil }()
	if err := src.Scan(0, src.Len(), s.take); err != nil {
		return err
	}
	if s.next < src.Len() {
		s.flush()
	}
	return nil
}

// take copies frame i into the window and flushes a full batch.
func (s *Sweeper) take(i int, im *frame.Image) error {
	s.win.push(im)
	if i+1-s.next == ahead {
		s.flush()
	}
	return nil
}

// flush histograms the frames taken since the last flush and feeds them to
// the detector and the visitor in frame order.
func (s *Sweeper) flush() {
	d := &s.d
	s.hists = frame.HistogramsInto(s.hists, s.win.frames[s.next-s.win.base:], d.cfg.Bins, s.workers)
	for _, h := range s.hists {
		b, cut := d.FeedHistogram(h)
		s.v.visit(s.next, h, b, cut)
		s.next++
	}
	// Every histogram of this batch can be overwritten by the next one
	// except the two the detector still references, the previous frame's
	// histogram and the gradual-transition anchor: those trade places with
	// kept histograms the detector has let go of.
	for i, h := range s.hists {
		if h == d.prevHist || h == d.anchorHist {
			s.hists[i] = s.spare()
			s.kept = append(s.kept, h)
		}
	}
}

// Shot is a detected, classified shot: frames [Start, End).
type Shot struct {
	Start, End int
	Class      Class
	// Features holds the aggregated classification features.
	Features Features
}

// Len returns the shot length in frames.
func (s Shot) Len() int { return s.End - s.Start }

// String renders the shot compactly for logs.
func (s Shot) String() string {
	return fmt.Sprintf("[%d,%d) %s", s.Start, s.End, s.Class)
}

// SegmentAndClassify segments the video and classifies every shot: the
// complete "segment detector" of the paper, run by a fresh Sweeper.
func SegmentAndClassify(src frame.Source, cfg Config, ccfg ClassifierConfig) ([]Shot, error) {
	return new(Sweeper).SegmentAndClassify(src, cfg, ccfg)
}

// SegmentAndClassify segments src in one forward scan and classifies every
// shot as it closes, holding only the frames of the current shot and of the
// batch ahead of it. Each frame's colour histogram is computed once, by the
// boundary pass; the court-colour vote and the classifier read its
// summaries instead of recomputing them.
//
// When ccfg has no court colour it is the winner of the court-colour vote
// at minimum share 0.3, which is only final once the scan ends. A shot
// closes under the vote's winner so far; after the scan, the shots that
// closed under another colour than the final one are scanned again from
// the source and re-classified, so the result is exactly that of
// classifying every shot under the final colour.
func (s *Sweeper) SegmentAndClassify(src frame.Source, cfg Config, ccfg ClassifierConfig) ([]Shot, error) {
	n := src.Len()
	sg := &segmentation{
		win:  &s.win,
		cs:   videoColors{bins: cfg.withDefaults().Bins, frames: make([]frameColor, n)},
		cls:  NewClassifier(ccfg),
		vote: ccfg.CourtColor == (frame.RGB{}),
		step: courtVoteStep(n),
		sc:   new(sampleScratch),
	}
	if err := s.sweep(src, cfg, sg); err != nil {
		return nil, err
	}
	if sg.start < n {
		sg.close(n)
	}
	if !sg.vote {
		return sg.shots, nil
	}
	final := sg.ballot.best
	sg.cls.cfg.CourtColor = final
	for i, sh := range sg.shots {
		if sg.under[i] == final {
			continue
		}
		s.win.reset(sh.Start)
		if err := src.Scan(sh.Start, sh.End, func(_ int, im *frame.Image) error {
			s.win.push(im)
			return nil
		}); err != nil {
			return nil, err
		}
		sg.shots[i].Class, sg.shots[i].Features = sg.cls.classifyShot(s.win.at, sg.cs, sh.Start, sh.End, sg.sc)
	}
	s.win.reset(n)
	return sg.shots, nil
}

// segmentation is the visitor of SegmentAndClassify: it summarises every
// frame's colour, counts the court-colour votes, and classifies each shot
// as it closes from the frames the window holds.
type segmentation struct {
	win    *window
	cs     videoColors
	cls    *Classifier
	vote   bool // the court colour is the vote's: ccfg had none
	ballot courtBallot
	step   int // courtVoteStep of the video
	sc     *sampleScratch
	start  int         // the first frame of the open shot
	shots  []Shot      // the closed shots
	under  []frame.RGB // the court colour each closed shot was classified under
}

func (sg *segmentation) visit(i int, h *frame.Histogram, _ Boundary, cut bool) {
	sg.cs.frames[i] = colorOf(h)
	if sg.vote && i%sg.step == 0 {
		sg.ballot.add(sg.cs.frames[i], 0.3)
	}
	if cut {
		sg.close(i)
	}
}

// close classifies the open shot, ending it at end, and drops its frames.
func (sg *segmentation) close(end int) {
	if sg.vote {
		sg.cls.cfg.CourtColor = sg.ballot.best
	}
	shot := Shot{Start: sg.start, End: end}
	shot.Class, shot.Features = sg.cls.classifyShot(sg.win.at, sg.cs, sg.start, end, sg.sc)
	sg.shots = append(sg.shots, shot)
	sg.under = append(sg.under, sg.cls.cfg.CourtColor)
	sg.win.drop(end)
	sg.start = end
}
