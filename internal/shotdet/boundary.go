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

// histChunk bounds how many histograms a Sweeper materializes at
// once: large enough to keep every worker busy, small enough that memory
// stays O(chunk) instead of O(video) even for hour-long inputs.
const histChunk = 1024

// Sweeper runs the detector over a frame slice. Histogram extraction — the
// dominant cost — is fanned out over cfg.Workers goroutines, one bounded
// chunk at a time; the stateful boundary decision then consumes the
// histograms in frame order. A Sweeper amortizes its scratch — the chunk
// histogram buffer and the adaptive-rule window — across repeated detection
// runs, so a threshold sweep over the same footage pays the per-frame
// histogram allocations once instead of once per configuration. The zero
// value is ready to use. A Sweeper is not safe for concurrent use.
type Sweeper struct {
	d     Detector
	hists []*frame.Histogram // chunk scratch, recycled across chunks and runs
}

// Detect returns the boundaries of frames under cfg. Through the Sweeper's
// recycled scratch the result is identical for every configuration and
// every reuse pattern; only the allocation profile changes.
func (s *Sweeper) Detect(frames []*frame.Image, cfg Config) []Boundary {
	return s.detect(frames, cfg, nil)
}

// detect is Detect that, given a non-nil colors of len(frames), also
// summarises every frame's histogram into it as the pass goes by.
func (s *Sweeper) detect(frames []*frame.Image, cfg Config, colors []frameColor) []Boundary {
	s.d = Detector{cfg: cfg.withDefaults(), recent: s.d.recent[:0]}
	d := &s.d
	var out []Boundary
	for start := 0; start < len(frames); start += histChunk {
		end := start + histChunk
		if end > len(frames) {
			end = len(frames)
		}
		s.hists = frame.HistogramsInto(s.hists, frames[start:end], d.cfg.Bins, cfg.Workers)
		for i, h := range s.hists {
			if colors != nil {
				colors[start+i] = colorOf(h)
			}
			if b, ok := d.FeedHistogram(h); ok {
				out = append(out, b)
			}
		}
		// Every histogram of this chunk can be overwritten by the next one
		// except the two the detector still references: the previous frame's
		// histogram and the gradual-transition anchor.
		for i, h := range s.hists {
			if h == d.prevHist || h == d.anchorHist {
				s.hists[i] = nil
			}
		}
	}
	return out
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

// segment splits frames into shots at the detected boundaries; every shot's
// class is ClassOther until classified. Given a non-nil colors of
// len(frames), it also summarises every frame's colour histogram into it
// from the boundary pass.
func segment(frames []*frame.Image, cfg Config, colors []frameColor) []Shot {
	var s Sweeper
	var shots []Shot
	start := 0
	for _, b := range s.detect(frames, cfg, colors) {
		shots = append(shots, Shot{Start: start, End: b.Frame})
		start = b.Frame
	}
	if start < len(frames) {
		shots = append(shots, Shot{Start: start, End: len(frames)})
	}
	return shots
}

// SegmentAndClassify segments the video and classifies every shot. This is
// the complete "segment detector" of the paper. When ccfg has no court
// colour it is estimated from the video by the court-colour vote at
// minimum share 0.3. Each frame's colour histogram is computed once, by the
// boundary pass; the court-colour vote and the classifier read its
// summaries instead of recomputing them.
func SegmentAndClassify(frames []*frame.Image, cfg Config, ccfg ClassifierConfig) []Shot {
	cs := videoColors{bins: cfg.withDefaults().Bins, frames: make([]frameColor, len(frames))}
	shots := segment(frames, cfg, cs.frames)
	if ccfg.CourtColor == (frame.RGB{}) {
		if est, ok := cs.courtColor(0.3); ok {
			ccfg.CourtColor = est
		}
	}
	NewClassifier(ccfg).classifyShots(frames, shots, cs)
	return shots
}
