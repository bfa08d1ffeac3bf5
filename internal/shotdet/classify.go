package shotdet

import (
	"fmt"
	"math"

	"repro/internal/frame"
)

// Class is the category assigned to a shot. The names match the four
// classes of the paper: tennis (court), close-up, audience, other.
type Class int

// Shot classes.
const (
	ClassOther Class = iota
	ClassTennis
	ClassCloseUp
	ClassAudience
)

// String returns the lowercase class name.
func (c Class) String() string {
	switch c {
	case ClassTennis:
		return "tennis"
	case ClassCloseUp:
		return "close-up"
	case ClassAudience:
		return "audience"
	default:
		return "other"
	}
}

// ParseClass converts a class name to a Class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "tennis":
		return ClassTennis, nil
	case "close-up", "closeup":
		return ClassCloseUp, nil
	case "audience":
		return ClassAudience, nil
	case "other":
		return ClassOther, nil
	}
	return ClassOther, fmt.Errorf("shotdet: unknown class %q", s)
}

// Features holds the per-frame (or shot-aggregated) measurements the
// classifier uses: the paper names the dominant colour, the amount of skin
// coloured pixels, and "entropy characteristics, mean and variance".
type Features struct {
	// Dominant is the most common quantized colour.
	Dominant frame.RGB
	// DominantShare is the fraction of pixels in the dominant colour's
	// histogram cell.
	DominantShare float64
	// CourtShare is the fraction of pixels within courtTolerance of the
	// classifier's court colour.
	CourtShare float64
	// SkinRatio is the fraction of skin-coloured pixels.
	SkinRatio float64
	// SkinBlob is the fraction of the frame covered by the largest
	// connected skin-coloured region (after morphological opening). A
	// close-up face is one large blob; the incidental skin of a crowd is
	// speckle that opening removes. This disambiguates close-ups from
	// audience shots, both of which may contain many skin pixels.
	SkinBlob float64
	// Entropy is the colour-histogram entropy in bits.
	Entropy float64
	// Mean and Variance are luminance statistics.
	Mean, Variance float64
}

// The classifier's decision rule and sampling. DESIGN.md §2
// (internal/shotdet) describes the rule.
const (
	// courtTolerance is the per-colour Euclidean distance within which a
	// pixel counts as court-coloured.
	courtTolerance = 60
	// courtShareMin is the minimum court-coloured fraction for a tennis
	// shot.
	courtShareMin = 0.35
	// skinRatioMin is the minimum skin fraction for a close-up.
	skinRatioMin = 0.12
	// skinBlobMin is the minimum largest-skin-blob share for a close-up.
	skinBlobMin = 0.05
	// entropyMin is the minimum colour entropy (bits) for an audience shot.
	entropyMin = 6.0
	// sampleFrames is how many frames of a shot are sampled and averaged
	// when classifying a whole shot.
	sampleFrames = 5
)

// Classifier assigns shot classes from features using the decision rule of
// the paper: court shots by dominant colour, close-ups by skin fraction,
// audience by entropy, otherwise other.
type Classifier struct {
	court frame.RGB // the reference playing-surface colour
}

// NewClassifier builds a classifier for the given court colour.
// SegmentAndClassify estimates the colour by the video's court-colour vote;
// E3 supplies the calibrated one.
func NewClassifier(court frame.RGB) *Classifier {
	return &Classifier{court: court}
}

// courtSq is courtThreshold(courtTolerance): the largest integer squared
// colour distance within courtTolerance.
var courtSq = courtThreshold(courtTolerance)

// maxColorSq is the largest squared distance between two RGB colours.
const maxColorSq = 3 * 255 * 255

// courtThreshold returns the largest integer x in [0, maxColorSq] with
// math.Sqrt(float64(x)) <= tol, or -1 if there is none. frame.ColorDist is
// math.Sqrt of the squared distance, an integer that float64 holds exactly,
// and Sqrt is monotone, so for every pair of colours
// ColorDist(a, b) <= tol iff their integer squared distance <= courtThreshold(tol).
func courtThreshold(tol float64) int {
	if !(tol >= 0) { // negative or NaN: no distance qualifies
		return -1
	}
	x := maxColorSq
	if tol*tol < maxColorSq {
		x = int(tol * tol)
	}
	for x < maxColorSq && math.Sqrt(float64(x+1)) <= tol {
		x++
	}
	for x >= 0 && math.Sqrt(float64(x)) > tol {
		x--
	}
	return x
}

// frameColor is what the detectors downstream of the boundary pass read of
// a frame's colour histogram: the centre colour of its most populated cell,
// that cell's share of the pixels, the histogram's entropy, and the pixels
// in its brightest cell (every channel >= 224): a court's white lines.
type frameColor struct {
	peak    frame.RGB
	share   float64
	entropy float64
	lines   float64
}

// colorOf summarises a colour histogram.
func colorOf(h *frame.Histogram) frameColor {
	peak, share := h.Peak()
	return frameColor{peak: peak, share: share, entropy: h.Entropy(), lines: h.Counts[len(h.Counts)-1]}
}

// videoColors is a video's per-frame colour summary, one per frame in
// frame order — in the feature grammar's terms, a feature computed once and
// read by every detector that depends on it. SegmentAndClassify fills it
// from the boundary pass; the court-colour vote and the shot classifier
// read it.
type videoColors []frameColor

// courtVoteStep is the stride of the frames that vote on the court colour.
func courtVoteStep(frames int) int { return frames/64 + 1 }

// sampleScratch is the working memory of extract — the skin mask, its
// opening and the labelling buffers — reused across the sampled frames of
// one segmentation. It is never kept on the Classifier: the FDE engine that
// owns one is shared by the pipeline's workers.
type sampleScratch struct {
	skin, eroded, opened frame.Mask
	labeler              frame.Labeler
}

// extract measures a frame's features given its colour summary. One pass
// over the pixels counts the luminance histogram in integers, writes the
// skin mask and counts its pixels and the court-coloured ones (an integer
// squared distance against courtSq); the skin blob is the largest component
// of the mask's opening, and is 0 with no skin pixel to open. Every count is
// an integer below 2^53, so the features are the float64 values
// per-feature pixel passes give.
func (c *Classifier) extract(im *frame.Image, col frameColor, s *sampleScratch) Features {
	n := im.W * im.H
	s.skin.Reset(im.W, im.H)
	var gray [256]int
	skinN, courtN := 0, 0
	cr, cg, cb := int(c.court.R), int(c.court.G), int(c.court.B)
	bits := s.skin.Bits
	for i, p := 0, im.Pix; len(p) >= 3 && i < len(bits); i, p = i+1, p[3:] {
		px := frame.RGB{R: p[0], G: p[1], B: p[2]}
		gray[int(frame.Luma(px))]++
		if frame.IsSkin(px) {
			bits[i] = true
			skinN++
		}
		dr, dg, db := int(p[0])-cr, int(p[1])-cg, int(p[2])-cb
		if dr*dr+dg*dg+db*db <= courtSq {
			courtN++
		}
	}
	g := frame.GrayHistogram{Total: float64(n)}
	for v, k := range gray {
		g.Counts[v] = float64(k)
	}
	f := Features{
		Dominant:      col.peak,
		DominantShare: col.share,
		Entropy:       col.entropy,
		Mean:          g.Mean(),
		Variance:      g.Variance(),
	}
	if n == 0 {
		return f
	}
	f.CourtShare = float64(courtN) / float64(n)
	f.SkinRatio = float64(skinN) / float64(n)
	if skinN > 0 {
		s.skin.ErodeInto(&s.eroded).DilateInto(&s.opened)
		largest := 0
		for _, comp := range s.labeler.Components(&s.opened) {
			largest = max(largest, comp.Area)
		}
		f.SkinBlob = float64(largest) / float64(n)
	}
	return f
}

// Classify applies the decision rule to a feature vector.
func (c *Classifier) Classify(f Features) Class {
	switch {
	case f.CourtShare >= courtShareMin:
		return ClassTennis
	case f.SkinBlob >= skinBlobMin && f.SkinRatio >= skinRatioMin:
		return ClassCloseUp
	case f.Entropy >= entropyMin:
		return ClassAudience
	default:
		return ClassOther
	}
}

// ClassifyShot classifies the shot [start, end) of frames on its own,
// computing each sampled frame's colour summary afresh.
func (c *Classifier) ClassifyShot(frames []*frame.Image, start, end int) (Class, Features) {
	start, end = max(start, 0), min(end, len(frames))
	at := func(i int) *frame.Image { return frames[i] }
	color := func(i int) frameColor { return colorOf(frame.HistogramOf(frames[i], bins)) }
	return c.classifyShot(at, color, start, end, new(sampleScratch))
}

// classifyShot samples sampleFrames frames evenly across [start, end),
// averages their features, and classifies the aggregate. Averaging smooths
// over transient occlusions within the shot. at returns a frame of the
// shot and color its colour summary.
func (c *Classifier) classifyShot(at func(int) *frame.Image, color func(int) frameColor, start, end int, s *sampleScratch) (Class, Features) {
	if start >= end {
		return ClassOther, Features{}
	}
	n := min(sampleFrames, end-start)
	var agg Features
	for k := 0; k < n; k++ {
		idx := start + (end-start-1)*k/max(n-1, 1)
		f := c.extract(at(idx), color(idx), s)
		agg.DominantShare += f.DominantShare
		agg.CourtShare += f.CourtShare
		agg.SkinRatio += f.SkinRatio
		agg.SkinBlob += f.SkinBlob
		agg.Entropy += f.Entropy
		agg.Mean += f.Mean
		agg.Variance += f.Variance
	}
	inv := 1 / float64(n)
	agg.DominantShare *= inv
	agg.CourtShare *= inv
	agg.SkinRatio *= inv
	agg.SkinBlob *= inv
	agg.Entropy *= inv
	agg.Mean *= inv
	agg.Variance *= inv
	// Dominant colour of the middle frame is representative; it is the only
	// feature read of that frame.
	agg.Dominant = color((start + end) / 2).peak
	return c.Classify(agg), agg
}

// courtColor is the court-colour vote over cs: every courtVoteStep-th
// frame casts a ballot (see courtBallot.add). The boolean is false if no
// frame voted.
func (cs videoColors) courtColor() (frame.RGB, bool) {
	var b courtBallot
	for i := 0; i < len(cs); i += courtVoteStep(len(cs)) {
		b.add(cs[i])
	}
	return b.best, b.bestN > 0
}

// courtBallot counts the court-colour vote: the modal dominant colour among
// the voting frames where one colour holds at least voteShareMin of pixels
// — over broadcast footage this converges on the court surface, mirroring
// the paper's "estimated statistics of the tennis field color". Only
// chromatic candidates (HSV saturation >= voteSaturationMin) are counted:
// playing surfaces (green, blue, clay) are saturated, while the near-grey
// backgrounds of close-ups and crowd shots are not, and would otherwise
// outvote the court in videos with few playing shots. A tie in votes goes
// to the colour whose voting frames hold more line pixels (frameColor.lines):
// a court has white lines painted on it, a flat backdrop has none. A tie in
// both stays with the colour that reached it first. The frames vote in
// frame order, so the same frames elect the same colour on every run, or a
// WAL replay would not rebuild what the live commit built. The winner so
// far is kept as the votes arrive; only the colour a vote counts can
// overtake it, so it is the winner of the votes counted so far.
type courtBallot struct {
	votes map[frame.RGB]int
	lines map[frame.RGB]float64 // the line pixels of each colour's voting frames
	best  frame.RGB             // zero until a frame votes
	bestN int
}

// The court-colour vote's gates on a voting frame's dominant colour.
const (
	voteShareMin      = 0.3
	voteSaturationMin = 0.25
)

// add counts fc's vote, if it casts one.
func (b *courtBallot) add(fc frameColor) {
	if fc.share < voteShareMin || frame.ToHSV(fc.peak).S < voteSaturationMin {
		return
	}
	if b.votes == nil {
		b.votes, b.lines = map[frame.RGB]int{}, map[frame.RGB]float64{}
	}
	b.votes[fc.peak]++
	b.lines[fc.peak] += fc.lines
	if n := b.votes[fc.peak]; n > b.bestN || n == b.bestN && b.lines[fc.peak] > b.lines[b.best] {
		b.best, b.bestN = fc.peak, n
	}
}
