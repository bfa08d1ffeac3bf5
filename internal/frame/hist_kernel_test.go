package frame

import (
	"math"
	"math/rand"
	"testing"
)

// Scalar reference forms of the restructured kernels (the pre-PR-10 loops).
// The chunked/LUT paths must be bit-identical to these on any input: the
// shot-boundary decisions compare the distances against thresholds, so even
// a last-bit drift could flip a boundary.

func referenceAddImage(h *Histogram, im *Image) {
	for i := 0; i < len(im.Pix); i += 3 {
		h.Counts[h.Index(RGB{im.Pix[i], im.Pix[i+1], im.Pix[i+2]})]++
	}
	h.Total += float64(im.W * im.H)
}

func referenceAddRegion(h *Histogram, im *Image, r Rect) {
	r = r.Clip(im)
	for y := r.Y0; y < r.Y1; y++ {
		o := im.Offset(r.X0, y)
		for x := r.X0; x < r.X1; x++ {
			h.Counts[h.Index(RGB{im.Pix[o], im.Pix[o+1], im.Pix[o+2]})]++
			o += 3
		}
	}
	h.Total += float64(r.Area())
}

func referenceL1(h, other *Histogram) float64 {
	var d float64
	ht, ot := h.Total, other.Total
	if ht == 0 {
		ht = 1
	}
	if ot == 0 {
		ot = 1
	}
	for i := range h.Counts {
		d += math.Abs(h.Counts[i]/ht - other.Counts[i]/ot)
	}
	return d
}

// TestAddImageMatchesReference locks both extraction kernels — the integer
// lanes (bins <= 8) and the float LUT loop — to the Index loop, bin count
// by bin count (including odd bins, where the quantization truncation is
// easiest to get wrong), accumulating over several frames so the lanes' one
// add per cell lands on non-zero counts. The shapes cover a pixel count
// that is not a multiple of the four lanes and a flat frame whose every
// pixel hits one cell.
func TestAddImageMatchesReference(t *testing.T) {
	flat := New(19, 11)
	flat.Fill(RGB{R: 30, G: 140, B: 70})
	shapes := [][]*Image{
		randomFrames(4, 37, 23, 1001),
		append(randomFrames(2, 160, 120, 1003), flat),
	}
	for _, frames := range shapes {
		for _, bins := range []int{2, 3, 4, 5, 7, 8, 9, 16, 100, 256} {
			got, want := NewHistogram(bins), NewHistogram(bins)
			for _, im := range frames {
				got.AddImage(im)
				referenceAddImage(want, im)
			}
			if got.Total != want.Total {
				t.Fatalf("%dx%d bins=%d: total %v != %v", frames[0].W, frames[0].H, bins, got.Total, want.Total)
			}
			for b := range got.Counts {
				if got.Counts[b] != want.Counts[b] {
					t.Fatalf("%dx%d bins=%d bin %d: %v != %v", frames[0].W, frames[0].H, bins, b, got.Counts[b], want.Counts[b])
				}
			}
		}
	}
}

// TestAddRegionMatchesReference covers interior, clipped and fully
// out-of-bounds rectangles.
func TestAddRegionMatchesReference(t *testing.T) {
	im := randomFrames(1, 40, 30, 77)[0]
	rects := []Rect{
		{X0: 3, Y0: 4, X1: 21, Y1: 17},
		{X0: 0, Y0: 0, X1: 40, Y1: 30},
		{X0: -10, Y0: -5, X1: 12, Y1: 8}, // clipped at origin
		{X0: 30, Y0: 20, X1: 60, Y1: 50}, // clipped at far edge
		{X0: -20, Y0: 5, X1: -3, Y1: 12}, // fully left of the image
		{X0: 5, Y0: 5, X1: 5, Y1: 20},    // zero width
		{X0: 41, Y0: 31, X1: 80, Y1: 60}, // fully outside
	}
	for i, r := range rects {
		got, want := NewHistogram(8), NewHistogram(8)
		got.AddRegion(im, r)
		referenceAddRegion(want, im, r)
		if got.Total != want.Total {
			t.Fatalf("rect %d: total %v != %v", i, got.Total, want.Total)
		}
		for b := range got.Counts {
			if got.Counts[b] != want.Counts[b] {
				t.Fatalf("rect %d bin %d: %v != %v", i, b, got.Counts[b], want.Counts[b])
			}
		}
	}
}

// TestDistanceKernelsMatchReference locks the chunked L1 loop to the
// scalar accumulation, bit for bit, across bin counts that exercise both
// the 4-wide body and the remainder tail (including empty histograms, whose
// totals take the ==0 guard).
func TestDistanceKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, bins := range []int{2, 3, 5, 8, 16} {
		for trial := 0; trial < 20; trial++ {
			a, b := NewHistogram(bins), NewHistogram(bins)
			if trial > 0 { // trial 0: both empty
				for i := range a.Counts {
					a.Counts[i] = float64(rng.Intn(50))
					b.Counts[i] = float64(rng.Intn(50))
					a.Total += a.Counts[i]
					b.Total += b.Counts[i]
				}
			}
			if got, want := a.L1Dist(b), referenceL1(a, b); got != want {
				t.Fatalf("bins=%d trial=%d: L1 %v != %v", bins, trial, got, want)
			}
		}
	}
}
