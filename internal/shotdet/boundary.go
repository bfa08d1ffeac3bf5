// Package shotdet implements the paper's "segment detector": it partitions
// a video into shots using colour-histogram differences between frames, by
// one twin-comparison rule for hard cuts, dissolves, fades and wipes, and
// classifies each shot into one of four categories — tennis (court),
// close-up, audience, other — from the dominant colour, the amount of
// skin-coloured pixels, and entropy/mean/variance characteristics, exactly
// the feature set the paper describes.
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

// Threshold is how far from the frame before it a run of changing frames
// must get to be a transition. SegmentAndClassify applies it; Sweeper.Detect
// takes its threshold as an argument, so that E2 can sweep it.
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
	// gradualLow is the frame-to-frame noise level: a distance above it
	// between neighbouring frames opens or extends a run, and a run's
	// distance from its anchor grows only by more than it.
	gradualLow = 0.08
)

// detector detects shot boundaries in streaming fashion, by twin
// comparison taken whole over the L1 distance between frames' histograms.
// A distance above gradualLow between neighbouring frames opens a run
// anchored at the frame before it, which extends while that distance stays
// above gradualLow and the anchor distance grows by more than gradualLow. A
// run that gets more than threshold from its anchor is a transition (a hard
// cut is a one-frame run), and a shot starts at its first frame that far. A
// run that opens before the picture settles after a transition (a frame
// within gradualLow of the one before, or a run that stays within
// threshold) continues that transition. The detector copies the histograms
// it keeps.
type detector struct {
	threshold    float64
	prev, anchor frame.Histogram // the previous frame's, and the open run's anchor
	idx, lastCut int             // the next frame, and the last shot's first
	settled      int             // the last shot's first frame past its opening transition
	// The open run (open is false between runs): the frame where its anchor
	// distance last grew, and that distance.
	open     bool
	peak     int
	peakDist float64
	// chained is set while the last run closed was a transition and the
	// picture has not settled since.
	chained bool
}

// feed processes the next frame's histogram (at bins per channel) and
// reports whether a shot starts at this frame; if one does, from is the
// first frame of the shot it ends past that shot's opening transition.
// Callers extract the histograms in parallel and keep only this cheap
// decision sequential.
func (d *detector) feed(h *frame.Histogram) (from int, cut bool) {
	idx, was := d.idx, d.peakDist
	d.idx++
	defer copyHistogram(&d.prev, h)
	if idx == 0 {
		return 0, false
	}
	near := d.prev.L1Dist(h)
	grows := false
	if d.open && near > gradualLow {
		if dist := d.anchor.L1Dist(h); dist > d.peakDist+gradualLow {
			d.peak, d.peakDist, grows = idx, dist, true
		}
	}
	if !grows {
		if d.open {
			d.close()
		}
		if near <= gradualLow {
			d.chained = false
			return 0, false
		}
		d.prev, d.anchor = d.anchor, d.prev // the anchor is the previous frame
		d.open, d.peak, d.peakDist, was = true, idx, near, 0
	}
	// A shot starts where the run first gets more than threshold from its
	// anchor, unless the run continues a transition or follows a cut closely.
	if was > d.threshold || d.peakDist <= d.threshold || d.chained || idx-d.lastCut < minShotLen {
		return 0, false
	}
	d.lastCut = idx
	return d.settled, true
}

// close ends the open run, if any. One that stayed within threshold of its
// anchor settles the picture; a transition's peak is where the shot it
// started, or the shot whose transition it continues, settles.
func (d *detector) close() {
	d.open, d.chained = false, d.peakDist > d.threshold
	if d.chained {
		d.settled = d.peak
	}
}

// copyHistogram makes dst a copy of src in dst's own buffer.
func copyHistogram(dst, src *frame.Histogram) {
	dst.Bins, dst.Total = src.Bins, src.Total
	dst.Counts = append(dst.Counts[:0], src.Counts...)
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

	d     detector
	hists []*frame.Histogram // batch scratch, recycled across batches and runs
	win   window
	// The run in progress: the first frame whose histogram is not yet
	// consumed, and the visitor.
	next int
	v    visitor
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
// under the transition threshold given. Through the Sweeper's recycled
// scratch the result is identical for every threshold and every reuse
// pattern; only the allocation profile changes.
func (s *Sweeper) Detect(frames []*frame.Image, threshold float64) []int {
	bl := &boundaryList{win: &s.win}
	// An in-memory source cannot fail.
	_ = s.sweep(frame.Frames(frames), threshold, bl)
	return bl.out
}

// visitor consumes the boundary pass frame by frame: visit is called in
// frame order with every frame's histogram and detector.feed's report on it.
// When it is called the window holds every frame from its base up to the
// end of the frame's batch; the visitor drops what it no longer needs.
type visitor interface {
	visit(i int, h *frame.Histogram, cut bool, from int)
}

// boundaryList is the visitor of Detect: it keeps the boundaries and none
// of the frames.
type boundaryList struct {
	win *window
	out []int
}

func (bl *boundaryList) visit(i int, _ *frame.Histogram, cut bool, _ int) {
	if cut {
		bl.out = append(bl.out, i)
	}
	bl.win.drop(i + 1)
}

// sweep runs the boundary pass over src for v.
func (s *Sweeper) sweep(src frame.Source, threshold float64, v visitor) error {
	s.d = detector{threshold: threshold, prev: s.d.prev, anchor: s.d.anchor} // keeps the buffers
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
	s.d.close()
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
// the detector and the visitor in frame order. The detector copies what it
// keeps, so the next batch overwrites every histogram of this one.
func (s *Sweeper) flush() {
	s.hists = frame.HistogramsInto(s.hists, s.win.frames[s.next-s.win.base:], bins, s.Workers)
	for _, h := range s.hists {
		from, cut := s.d.feed(h)
		s.v.visit(s.next, h, cut, from)
		s.next++
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
// classifier read its summaries instead of recomputing them. A shot is
// classified from its frames past the transition (mixing two shots) that
// opened it.
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
		sg.close(n, s.d.settled)
	}
	final := sg.ballot.best
	sg.cls.court = final
	for i, sh := range sg.shots {
		if sg.under[i] == final {
			continue
		}
		s.win.reset(sg.from[i])
		if err := src.Scan(sg.from[i], sh.End, func(_ int, im *frame.Image) error {
			s.win.push(im)
			return nil
		}); err != nil {
			return nil, err
		}
		sg.shots[i].Class, sg.shots[i].Features = sg.cls.classifyShot(s.win.at, sg.color, sg.from[i], sh.End, sg.sc)
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
	from   []int       // the first frame each closed shot was classified from
	under  []frame.RGB // the court colour each closed shot was classified under
}

func (sg *segmentation) visit(i int, h *frame.Histogram, cut bool, from int) {
	sg.cs[i] = colorOf(h)
	if i%sg.step == 0 {
		sg.ballot.add(sg.cs[i])
	}
	if cut {
		sg.close(i, from)
	}
}

// color is frame i's colour summary, from the boundary pass.
func (sg *segmentation) color(i int) frameColor { return sg.cs[i] }

// close classifies the open shot from its frames [from, end), ending it at
// end, and drops its frames.
func (sg *segmentation) close(end, from int) {
	sg.cls.court = sg.ballot.best
	shot := Shot{Start: sg.start, End: end}
	shot.Class, shot.Features = sg.cls.classifyShot(sg.win.at, sg.color, from, end, sg.sc)
	sg.shots = append(sg.shots, shot)
	sg.from = append(sg.from, from)
	sg.under = append(sg.under, sg.cls.court)
	sg.win.drop(end)
	sg.start = end
}
