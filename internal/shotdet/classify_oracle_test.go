package shotdet

import (
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/synth"
)

// The classifier's measurements as they were before the fused pass: one
// pixel pass per feature (grey histogram, skin mask, court share by float
// colour distance) and a fresh opening and labelling of the skin mask. Kept
// only as the oracle the fused pass is checked against.

func extractReference(c *Classifier, im *frame.Image, col frameColor) Features {
	n := im.W * im.H
	g := frame.GrayHistogram{Total: float64(n)}
	for i := 0; i < len(im.Pix); i += 3 {
		g.Counts[int(frame.Luma(frame.RGB{R: im.Pix[i], G: im.Pix[i+1], B: im.Pix[i+2]}))]++
	}
	skin := &frame.Mask{W: im.W, H: im.H, Bits: make([]bool, n)}
	skinN := 0
	for i := range skin.Bits {
		if frame.IsSkin(frame.RGB{R: im.Pix[3*i], G: im.Pix[3*i+1], B: im.Pix[3*i+2]}) {
			skin.Bits[i] = true
			skinN++
		}
	}
	ratio, blob := 0.0, 0.0
	if n > 0 {
		ratio = float64(skinN) / float64(n)
	}
	for _, comp := range new(frame.Labeler).Components(skin.ErodeInto(new(frame.Mask)).DilateInto(new(frame.Mask))) {
		blob = max(blob, float64(comp.Area)/float64(n))
	}
	court := 0.0
	if n > 0 {
		cnt := 0
		for i := 0; i < len(im.Pix); i += 3 {
			px := frame.RGB{R: im.Pix[i], G: im.Pix[i+1], B: im.Pix[i+2]}
			if frame.ColorDist(px, c.court) <= courtTolerance {
				cnt++
			}
		}
		court = float64(cnt) / float64(n)
	}
	return Features{
		Dominant:      col.peak,
		DominantShare: col.share,
		CourtShare:    court,
		SkinRatio:     ratio,
		SkinBlob:      blob,
		Entropy:       col.entropy,
		Mean:          g.Mean(),
		Variance:      g.Variance(),
	}
}

// classifyShotReference is classifyShot through extractReference.
func classifyShotReference(c *Classifier, frames []*frame.Image, start, end int) (Class, Features) {
	start, end = max(start, 0), min(end, len(frames))
	if start >= end {
		return ClassOther, Features{}
	}
	color := func(i int) frameColor { return colorOf(frame.HistogramOf(frames[i], bins)) }
	n := min(sampleFrames, end-start)
	var agg Features
	for k := 0; k < n; k++ {
		idx := start + (end-start-1)*k/max(n-1, 1)
		f := extractReference(c, frames[idx], color(idx))
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
	agg.Dominant = color((start + end) / 2).peak
	return c.Classify(agg), agg
}

// The fused pass measures, bit for bit, what the per-feature passes did:
// every shot SegmentAndClassify classifies, over broadcasts holding all four
// classes, and extract on single frames of each class.
func TestFusedFeaturesMatchReference(t *testing.T) {
	classes := map[Class]bool{}
	for _, seed := range []int64{31, 32, 33} {
		v := genVideo(t, seed, 10)
		court, ok := recomputedColors(v.Frames).courtColor()
		if !ok {
			t.Fatalf("seed %d: no court colour estimated", seed)
		}
		cls := NewClassifier(court)
		for i, s := range segmentAll(t, v.Frames) {
			class, f := classifyShotReference(cls, v.Frames, s.Start, s.End)
			if s.Class != class || s.Features != f {
				t.Fatalf("seed %d shot %d: fused %v %+v, reference %v %+v", seed, i, s.Class, s.Features, class, f)
			}
			classes[s.Class] = true
			mid := v.Frames[(s.Start+s.End)/2]
			col := colorOf(frame.HistogramOf(mid, bins))
			if got, want := cls.extract(mid, col, new(sampleScratch)), extractReference(cls, mid, col); got != want {
				t.Fatalf("seed %d shot %d middle frame: fused %+v, reference %+v", seed, i, got, want)
			}
		}
	}
	if len(classes) != 4 {
		t.Fatalf("the broadcasts cover classes %v, want all four", classes)
	}
}

// courtThreshold is exact: for every one of the 2^24 colours, its integer
// squared distance to the court is within the threshold iff ColorDist is
// within the tolerance.
func TestCourtThresholdExhaustive(t *testing.T) {
	court := synth.CourtColor
	for _, tol := range []float64{60, 59.5, 0, 441.7} {
		sq := courtThreshold(tol)
		for x := 0; x <= maxColorSq; x++ {
			if (math.Sqrt(float64(x)) <= tol) != (x <= sq) {
				t.Fatalf("tol %v: threshold %d misplaces squared distance %d", tol, sq, x)
			}
		}
		for v := 0; v < 1<<24; v++ {
			px := frame.RGB{R: uint8(v >> 16), G: uint8(v >> 8), B: uint8(v)}
			dr, dg, db := int(px.R)-int(court.R), int(px.G)-int(court.G), int(px.B)-int(court.B)
			if got, want := dr*dr+dg*dg+db*db <= sq, frame.ColorDist(px, court) <= tol; got != want {
				t.Fatalf("tol %v colour %v: threshold says %v, ColorDist %v", tol, px, got, want)
			}
		}
	}
	for _, tol := range []float64{-1, math.NaN()} {
		if sq := courtThreshold(tol); sq != -1 {
			t.Errorf("tol %v: threshold %d, want -1 (no colour qualifies)", tol, sq)
		}
	}
	if sq := courtThreshold(math.Inf(1)); sq != maxColorSq {
		t.Errorf("infinite tolerance: threshold %d, want %d", sq, maxColorSq)
	}
}
