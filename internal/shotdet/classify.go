package shotdet

import (
	"fmt"

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
	// CourtShare is the fraction of pixels within CourtTolerance of the
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

// ClassifierConfig tunes the shot classifier.
type ClassifierConfig struct {
	// CourtColor is the reference playing-surface colour. Estimate it from
	// the corpus with EstimateCourtColor, or supply a calibrated value.
	CourtColor frame.RGB
	// CourtTolerance is the per-colour Euclidean distance within which a
	// pixel counts as court-coloured (default 60).
	CourtTolerance float64
	// CourtShareMin is the minimum court-coloured fraction for a tennis
	// shot (default 0.35).
	CourtShareMin float64
	// SkinRatioMin is the minimum skin fraction for a close-up
	// (default 0.12).
	SkinRatioMin float64
	// SkinBlobMin is the minimum largest-skin-blob share for a close-up
	// (default 0.05).
	SkinBlobMin float64
	// EntropyMin is the minimum colour entropy (bits) for an audience shot
	// (default 6.0).
	EntropyMin float64
	// Bins is the histogram resolution (default 8).
	Bins int
	// SampleFrames is how many frames of a shot are sampled and averaged
	// when classifying a whole shot (default 5).
	SampleFrames int
}

// DefaultClassifierConfig returns the tuned thresholds used by the
// experiments. The court colour must still be set (or estimated).
func DefaultClassifierConfig(court frame.RGB) ClassifierConfig {
	return ClassifierConfig{
		CourtColor:     court,
		CourtTolerance: 60,
		CourtShareMin:  0.35,
		SkinRatioMin:   0.12,
		SkinBlobMin:    0.05,
		EntropyMin:     6.0,
		Bins:           8,
		SampleFrames:   5,
	}
}

func (c ClassifierConfig) withDefaults() ClassifierConfig {
	if c.CourtTolerance == 0 {
		c.CourtTolerance = 60
	}
	if c.CourtShareMin == 0 {
		c.CourtShareMin = 0.35
	}
	if c.SkinRatioMin == 0 {
		c.SkinRatioMin = 0.12
	}
	if c.SkinBlobMin == 0 {
		c.SkinBlobMin = 0.05
	}
	if c.EntropyMin == 0 {
		c.EntropyMin = 6.0
	}
	if c.Bins == 0 {
		c.Bins = 8
	}
	if c.SampleFrames == 0 {
		c.SampleFrames = 5
	}
	return c
}

// Classifier assigns shot classes from features using the decision rule of
// the paper: court shots by dominant colour, close-ups by skin fraction,
// audience by entropy, otherwise other.
type Classifier struct {
	cfg ClassifierConfig
}

// NewClassifier builds a classifier with the given configuration.
func NewClassifier(cfg ClassifierConfig) *Classifier {
	return &Classifier{cfg: cfg.withDefaults()}
}

// ExtractFeatures measures the classification features of a single frame.
func (c *Classifier) ExtractFeatures(im *frame.Image) Features {
	h := frame.HistogramOf(im, c.cfg.Bins)
	dom, share := h.Peak()
	g := frame.GrayHistogramOf(im)
	blob := 0.0
	if comp, ok := frame.SkinMask(im).Open().Largest(); ok {
		blob = float64(comp.Area) / float64(im.W*im.H)
	}
	return Features{
		Dominant:      dom,
		DominantShare: share,
		CourtShare:    c.courtShare(im),
		SkinRatio:     frame.SkinRatio(im),
		SkinBlob:      blob,
		Entropy:       h.Entropy(),
		Mean:          g.Mean(),
		Variance:      g.Variance(),
	}
}

// courtShare returns the fraction of pixels within CourtTolerance of the
// reference court colour.
func (c *Classifier) courtShare(im *frame.Image) float64 {
	n := im.W * im.H
	if n == 0 {
		return 0
	}
	cnt := 0
	for i := 0; i < len(im.Pix); i += 3 {
		px := frame.RGB{R: im.Pix[i], G: im.Pix[i+1], B: im.Pix[i+2]}
		if frame.ColorDist(px, c.cfg.CourtColor) <= c.cfg.CourtTolerance {
			cnt++
		}
	}
	return float64(cnt) / float64(n)
}

// Classify applies the decision rule to a feature vector.
func (c *Classifier) Classify(f Features) Class {
	switch {
	case f.CourtShare >= c.cfg.CourtShareMin:
		return ClassTennis
	case f.SkinBlob >= c.cfg.SkinBlobMin && f.SkinRatio >= c.cfg.SkinRatioMin:
		return ClassCloseUp
	case f.Entropy >= c.cfg.EntropyMin:
		return ClassAudience
	default:
		return ClassOther
	}
}

// ClassifyFrame extracts features and classifies one frame.
func (c *Classifier) ClassifyFrame(im *frame.Image) (Class, Features) {
	f := c.ExtractFeatures(im)
	return c.Classify(f), f
}

// ClassifyShot samples SampleFrames frames evenly across [start, end),
// averages their features, and classifies the aggregate. Averaging smooths
// over transient occlusions within the shot.
func (c *Classifier) ClassifyShot(frames []*frame.Image, start, end int) (Class, Features) {
	if start < 0 {
		start = 0
	}
	if end > len(frames) {
		end = len(frames)
	}
	if start >= end {
		return ClassOther, Features{}
	}
	n := c.cfg.SampleFrames
	if n > end-start {
		n = end - start
	}
	var agg Features
	for k := 0; k < n; k++ {
		idx := start + (end-start-1)*k/maxInt(n-1, 1)
		f := c.ExtractFeatures(frames[idx])
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
	// Dominant colour of the middle sample is representative.
	mid := c.ExtractFeatures(frames[(start+end)/2])
	agg.Dominant = mid.Dominant
	return c.Classify(agg), agg
}

// EstimateCourtColor scans sample frames and returns the modal dominant
// colour among frames where one colour holds at least minShare of pixels —
// over broadcast footage this converges on the court surface, mirroring the
// paper's "estimated statistics of the tennis field color". Only chromatic
// candidates (HSV saturation >= 0.25) are counted: playing surfaces (green,
// blue, clay) are saturated, while the near-grey backgrounds of close-ups
// and crowd shots are not, and would otherwise outvote the court in videos
// with few playing shots. The boolean is false if no frame had a
// sufficiently dominant chromatic colour.
func EstimateCourtColor(frames []*frame.Image, bins int, minShare float64) (frame.RGB, bool) {
	if bins == 0 {
		bins = 8
	}
	if minShare == 0 {
		minShare = 0.3
	}
	const minSaturation = 0.25
	votes := map[frame.RGB]int{}
	step := len(frames)/64 + 1
	for i := 0; i < len(frames); i += step {
		h := frame.HistogramOf(frames[i], bins)
		dom, share := h.Peak()
		if share >= minShare && frame.ToHSV(dom).S >= minSaturation {
			votes[dom]++
		}
	}
	// The winner is picked under a total order — most votes, then R, G, B
	// ascending — so that a tie does not fall to map iteration order: the
	// same frames must index the same way on every run, or a WAL replay
	// would not rebuild what the live commit built.
	var best frame.RGB
	bestN := 0
	for c, n := range votes {
		if n > bestN || n == bestN && lessRGB(c, best) {
			best, bestN = c, n
		}
	}
	return best, bestN > 0
}

// lessRGB orders colours by R, then G, then B.
func lessRGB(a, b frame.RGB) bool {
	if a.R != b.R {
		return a.R < b.R
	}
	if a.G != b.G {
		return a.G < b.G
	}
	return a.B < b.B
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
