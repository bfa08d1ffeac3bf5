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

	"repro/internal/frame"
)

// Threshold is the hard-cut distance threshold of the boundary rule that
// SegmentAndClassify applies. Sweeper.Detect takes its threshold as an
// argument, so that E2 can sweep it.
const Threshold = 0.35

// The boundary rule's fixed parameters. DESIGN.md §2 (internal/shotdet)
// gives the measurements that chose the rule and its low threshold, and §6
// the bin count.
const (
	// bins is the number of histogram bins per channel, of the boundary
	// pass and of the colour summaries the classifier reads.
	bins = 8
	// minShotLen suppresses a boundary closer than this many frames to the
	// previous one.
	minShotLen = 6
	// gradualLow is the twin-threshold rule's low threshold: a run of
	// inter-frame distances above it is a transition in progress.
	gradualLow = 0.08
)

// Detector detects shot boundaries in streaming fashion: feed frame
// histograms one at a time. It applies the twin-threshold rule over the L1
// distance of neighbouring frames' histograms: a distance above threshold
// is a hard cut; a run of at least two distances above gradualLow is a
// gradual transition (a dissolve, fade or wipe) when the last frame before
// the run is more than threshold from the frame where the distance settles
// back below gradualLow, and it is reported at that frame.
type Detector struct {
	threshold float64
	prevHist  *frame.Histogram
	frameIdx  int
	lastCut   int
	// The gradual transition in progress: the histogram of the last stable
	// frame before it, nil outside one, and the run's length.
	anchorHist *frame.Histogram
	runLen     int
}

// FeedHistogram processes the next frame's histogram (at bins per channel)
// and reports whether a shot starts at this frame. The first frame never
// starts one. Callers extract the histograms in parallel and keep only this
// cheap decision sequential.
func (d *Detector) FeedHistogram(h *frame.Histogram) bool {
	idx := d.frameIdx
	d.frameIdx++
	prev := d.prevHist
	d.prevHist = h
	if prev == nil {
		return false
	}
	dist := prev.L1Dist(h)
	if dist > d.threshold {
		d.anchorHist, d.runLen = nil, 0
		return d.cut(idx)
	}
	if dist > gradualLow {
		if d.anchorHist == nil {
			d.anchorHist, d.runLen = prev, 0
		}
		d.runLen++
		return false
	}
	if d.anchorHist == nil {
		return false
	}
	anchor, runLen := d.anchorHist, d.runLen
	d.anchorHist, d.runLen = nil, 0
	return runLen >= 2 && anchor.L1Dist(h) > d.threshold && d.cut(idx)
}

// cut starts a shot at frame idx unless the previous one began fewer than
// minShotLen frames before.
func (d *Detector) cut(idx int) bool {
	if idx-d.lastCut < minShotLen {
		return false
	}
	d.lastCut = idx
	return true
}

// ahead is how many frames the boundary pass decodes before it consumes
// their histograms: one GOP at vidfmt's default, so the histograms of a
// batch spread over the workers while the frames held beyond the current
// shot stay within one restart interval of the codec.
const ahead = 12

// Sweeper runs the boundary detector over a frame source in one forward
// scan. Each frame is copied into the sweeper's window as it is decoded;
// every ahead frames, the batch's histograms — the dominant cost — are
// computed over Workers goroutines, and the stateful boundary decision
// consumes them in frame order. A Sweeper amortizes its scratch — the batch
// histograms and the window's frame buffers — across repeated runs, so a
// threshold sweep over the same footage pays the per-frame allocations once
// instead of once per threshold. The zero value is ready to use. A Sweeper
// is not safe for concurrent use.
type Sweeper struct {
	// Workers bounds the goroutines that compute the per-frame histograms
	// (< 1 selects GOMAXPROCS, 1 forces sequential). The result is the same
	// at any setting.
	Workers int

	d     Detector
	hists []*frame.Histogram // batch scratch, recycled across batches and runs
	kept  []*frame.Histogram // taken out of hists while the detector held them
	win   window
	// The run in progress: the first frame whose histogram is not yet
	// consumed, and the visitor.
	next int
	v    visitor
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

// Detect returns the first frame of every shot of frames after the first,
// under the hard-cut threshold given. Through the Sweeper's recycled
// scratch the result is identical for every threshold and every reuse
// pattern; only the allocation profile changes.
func (s *Sweeper) Detect(frames []*frame.Image, threshold float64) []int {
	bl := &boundaryList{win: &s.win}
	// An in-memory source cannot fail.
	_ = s.sweep(frame.Frames(frames), threshold, bl)
	return bl.out
}

// visitor consumes the boundary pass frame by frame: visit is called in
// frame order with every frame's histogram and whether a shot starts at
// that frame. When it is called the window holds every frame from its
// base up to the end of the frame's batch; the visitor drops what it no
// longer needs.
type visitor interface {
	visit(i int, h *frame.Histogram, cut bool)
}

// boundaryList is the visitor of Detect: it keeps the boundaries and none
// of the frames.
type boundaryList struct {
	win *window
	out []int
}

func (bl *boundaryList) visit(i int, _ *frame.Histogram, cut bool) {
	if cut {
		bl.out = append(bl.out, i)
	}
	bl.win.drop(i + 1)
}

// sweep runs the boundary pass over src for v.
func (s *Sweeper) sweep(src frame.Source, threshold float64, v visitor) error {
	s.d = Detector{threshold: threshold}
	s.win.reset(0)
	s.win.peak = 0
	s.next, s.v = 0, v
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
	s.hists = frame.HistogramsInto(s.hists, s.win.frames[s.next-s.win.base:], bins, s.Workers)
	for _, h := range s.hists {
		s.v.visit(s.next, h, d.FeedHistogram(h))
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
func SegmentAndClassify(src frame.Source) ([]Shot, error) {
	return new(Sweeper).SegmentAndClassify(src)
}

// SegmentAndClassify segments src in one forward scan under Threshold and
// classifies every shot as it closes, holding only the frames of the
// current shot and of the batch ahead of it. Each frame's colour histogram
// is computed once, by the boundary pass; the court-colour vote and the
// classifier read its summaries instead of recomputing them.
//
// The court colour is the winner of the video's court-colour vote, which is
// only final once the scan ends. A shot closes under the vote's winner so
// far; after the scan, the shots that closed under another colour than the
// final one are scanned again from the source and re-classified, so the
// result is exactly that of classifying every shot under the final colour.
func (s *Sweeper) SegmentAndClassify(src frame.Source) ([]Shot, error) {
	n := src.Len()
	sg := &segmentation{
		win:  &s.win,
		cs:   make(videoColors, n),
		cls:  NewClassifier(frame.RGB{}), // aimed at the vote's winner as shots close
		step: courtVoteStep(n),
		sc:   new(sampleScratch),
	}
	if err := s.sweep(src, Threshold, sg); err != nil {
		return nil, err
	}
	if sg.start < n {
		sg.close(n)
	}
	final := sg.ballot.best
	sg.cls.court = final
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
		sg.shots[i].Class, sg.shots[i].Features = sg.cls.classifyShot(s.win.at, sg.color, sh.Start, sh.End, sg.sc)
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
	cls    *Classifier // under the vote's winner so far
	ballot courtBallot
	step   int // courtVoteStep of the video
	sc     *sampleScratch
	start  int         // the first frame of the open shot
	shots  []Shot      // the closed shots
	under  []frame.RGB // the court colour each closed shot was classified under
}

func (sg *segmentation) visit(i int, h *frame.Histogram, cut bool) {
	sg.cs[i] = colorOf(h)
	if i%sg.step == 0 {
		sg.ballot.add(sg.cs[i])
	}
	if cut {
		sg.close(i)
	}
}

// color is frame i's colour summary, from the boundary pass.
func (sg *segmentation) color(i int) frameColor { return sg.cs[i] }

// close classifies the open shot, ending it at end, and drops its frames.
func (sg *segmentation) close(end int) {
	sg.cls.court = sg.ballot.best
	shot := Shot{Start: sg.start, End: end}
	shot.Class, shot.Features = sg.cls.classifyShot(sg.win.at, sg.color, sg.start, end, sg.sc)
	sg.shots = append(sg.shots, shot)
	sg.under = append(sg.under, sg.cls.court)
	sg.win.drop(end)
	sg.start = end
}
