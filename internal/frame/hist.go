package frame

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Histogram is a colour histogram with B bins per channel, quantizing the
// RGB cube into B×B×B cells. It is the primary feature used by the segment
// detector: shot boundaries are detected from the distance between the
// histograms of neighbouring frames.
type Histogram struct {
	// Bins is the number of quantization levels per channel.
	Bins int
	// Counts has Bins*Bins*Bins entries indexed by
	// (rBin*Bins+gBin)*Bins+bBin.
	Counts []float64
	// Total is the number of pixels accumulated.
	Total float64
}

// binLUTs caches the channel-value → bin table per bin count (Bins is in
// [2, 256]), replacing the per-pixel multiply/divide quantization in the
// extraction hot loop with a table load. A bin index fits uint8. Entries
// build lazily; the build is idempotent, so a racing double-build is
// harmless and every reader sees a complete table through the atomic.
var binLUTs [257]atomic.Pointer[[256]uint8]

// binLUTFor returns the bin table for the given bin count.
func binLUTFor(bins int) *[256]uint8 {
	if p := binLUTs[bins].Load(); p != nil {
		return p
	}
	var t [256]uint8
	for v := 0; v < 256; v++ {
		t[v] = uint8(v * bins / 256)
	}
	binLUTs[bins].Store(&t)
	return &t
}

// NewHistogram allocates an empty histogram with the given number of bins
// per channel. bins must be in [2, 256].
func NewHistogram(bins int) *Histogram {
	if bins < 2 || bins > 256 {
		panic(fmt.Sprintf("frame: invalid histogram bins %d", bins))
	}
	return &Histogram{Bins: bins, Counts: make([]float64, bins*bins*bins)}
}

// binOf maps an 8-bit channel value to its bin index.
func (h *Histogram) binOf(v uint8) int {
	return int(v) * h.Bins / 256
}

// Index returns the flat bin index for a colour.
func (h *Histogram) Index(c RGB) int {
	return (h.binOf(c.R)*h.Bins+h.binOf(c.G))*h.Bins + h.binOf(c.B)
}

// laneCells is the largest bin cube AddImage counts in integer lanes: four
// [laneCells]uint32 arrays, 8 KiB on the stack. It admits every bin count up
// to 8 per channel, the resolution the shot detector and classifier use.
const laneCells = 512

// cellLUT maps a channel value straight to its term of the flat bin index
// (rBin*Bins*Bins, gBin*Bins, bBin), so a pixel's cell is three loads and
// two adds. Built lazily per bin count like binLUTs.
type cellLUT struct{ r, g, b [256]uint16 }

var cellLUTs [9]atomic.Pointer[cellLUT]

// cellLUTFor returns the cell table for bins <= 8.
func cellLUTFor(bins int) *cellLUT {
	if p := cellLUTs[bins].Load(); p != nil {
		return p
	}
	lut := binLUTFor(bins)
	var t cellLUT
	for v := 0; v < 256; v++ {
		bin := uint16(lut[v])
		t.r[v], t.g[v], t.b[v] = bin*uint16(bins*bins), bin*uint16(bins), bin
	}
	cellLUTs[bins].Store(&t)
	return &t
}

// AddImage accumulates every pixel of the image. This is the profiled hot
// loop of shot-boundary detection (E2). When the bin cube fits laneCells,
// pixels are counted four at a time into four independent uint32 lanes —
// consecutive pixels of a flat region hit the same cell, and separate lanes
// keep those increments from queueing on one memory location — and each
// cell's lane sum is added to Counts once. That is exact, not approximately
// equal: every count is an integer below 2^53, where float64 adds integers
// without rounding, so one add of the sum gives the bits the per-pixel ++
// loop gives. Otherwise three LUT loads per pixel replace the
// multiply/divide quantizations of Index, and the slice-advance form proves
// the channel loads in bounds once per pixel.
func (h *Histogram) AddImage(im *Image) {
	bins := h.Bins
	if bins*bins*bins <= laneCells && uint64(len(im.Pix)/3) <= math.MaxUint32 {
		h.addImageLanes(im.Pix)
	} else {
		lut := binLUTFor(bins)
		counts := h.Counts
		for p := im.Pix; len(p) >= 3; p = p[3:] {
			counts[(int(lut[p[0]])*bins+int(lut[p[1]]))*bins+int(lut[p[2]])]++
		}
	}
	h.Total += float64(im.W * im.H)
}

// addImageLanes is AddImage's integer-lane kernel (Bins <= 8). A cell index
// is below Bins^3 <= laneCells, so masking it with laneCells-1 changes
// nothing and lets the compiler drop the lane bounds checks.
func (h *Histogram) addImageLanes(pix []byte) {
	t := cellLUTFor(h.Bins)
	var lanes [4][laneCells]uint32
	p := pix
	for ; len(p) >= 12; p = p[12:] {
		lanes[0][(t.r[p[0]]+t.g[p[1]]+t.b[p[2]])&(laneCells-1)]++
		lanes[1][(t.r[p[3]]+t.g[p[4]]+t.b[p[5]])&(laneCells-1)]++
		lanes[2][(t.r[p[6]]+t.g[p[7]]+t.b[p[8]])&(laneCells-1)]++
		lanes[3][(t.r[p[9]]+t.g[p[10]]+t.b[p[11]])&(laneCells-1)]++
	}
	for ; len(p) >= 3; p = p[3:] {
		lanes[0][(t.r[p[0]]+t.g[p[1]]+t.b[p[2]])&(laneCells-1)]++
	}
	for i := range h.Counts {
		h.Counts[i] += float64(uint64(lanes[0][i]) + uint64(lanes[1][i]) + uint64(lanes[2][i]) + uint64(lanes[3][i]))
	}
}

// AddRegion accumulates the pixels of im inside r (clipped to the image).
func (h *Histogram) AddRegion(im *Image, r Rect) {
	r = r.Clip(im)
	if r.X1 <= r.X0 {
		h.Total += float64(r.Area())
		return
	}
	lut := binLUTFor(h.Bins)
	bins := h.Bins
	counts := h.Counts
	for y := r.Y0; y < r.Y1; y++ {
		o := im.Offset(r.X0, y)
		row := im.Pix[o : o+3*(r.X1-r.X0)]
		for ; len(row) >= 3; row = row[3:] {
			counts[(int(lut[row[0]])*bins+int(lut[row[1]]))*bins+int(lut[row[2]])]++
		}
	}
	h.Total += float64(r.Area())
}

// Reset clears the histogram for reuse without reallocating its bins.
func (h *Histogram) Reset() {
	for i := range h.Counts {
		h.Counts[i] = 0
	}
	h.Total = 0
}

// SetImage recomputes h as the full-image histogram of im, reusing the
// existing bin storage: the allocation-free form of HistogramOf for
// per-frame hot loops.
func (h *Histogram) SetImage(im *Image) {
	h.Reset()
	h.AddImage(im)
}

// HistogramOf computes the full-image histogram with the given bins.
func HistogramOf(im *Image, bins int) *Histogram {
	h := NewHistogram(bins)
	h.AddImage(im)
	return h
}

// HistogramsInto computes the per-frame histograms of a frame sequence,
// fanning the frames out over a pool of workers goroutines (workers < 1
// selects GOMAXPROCS). Per-frame extraction is the hot loop of shot
// boundary detection; the output is identical to calling HistogramOf on
// every frame in order. It writes through a reusable buffer: out entries
// with a matching bin count are recomputed in place instead of reallocated,
// and out is grown or shrunk to len(frames). Callers recycle the returned
// slice across batches so the ingest hot loop stops paying one histogram
// allocation per frame; a nil out allocates everything.
func HistogramsInto(out []*Histogram, frames []*Image, bins, workers int) []*Histogram {
	for len(out) < len(frames) {
		out = append(out, nil)
	}
	out = out[:len(frames)]
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(frames) {
		workers = len(frames)
	}
	if workers <= 1 {
		for i := range frames {
			fillHistogram(out, frames, bins, i)
		}
		return out
	}
	// Rebound copies keep the goroutine closure from capturing out/frames
	// directly, which would heap-allocate them on the sequential path too.
	dst, src := out, frames
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(src) {
					return
				}
				fillHistogram(dst, src, bins, i)
			}
		}()
	}
	wg.Wait()
	return out
}

// fillHistogram computes frame i's histogram into out[i], reusing the slot
// when its bin count matches.
func fillHistogram(out []*Histogram, frames []*Image, bins, i int) {
	if h := out[i]; h != nil && h.Bins == bins {
		h.SetImage(frames[i])
	} else {
		out[i] = HistogramOf(frames[i], bins)
	}
}

// L1Dist returns the L1 (sum of absolute differences) distance between two
// normalized views of the histograms, in [0, 2]. Histograms must have the
// same number of bins.
func (h *Histogram) L1Dist(other *Histogram) float64 {
	mustSameBins(h, other)
	var d float64
	ht, ot := h.Total, other.Total
	if ht == 0 {
		ht = 1
	}
	if ot == 0 {
		ot = 1
	}
	// One bounds proof for both columns, then fixed-width chunks. The
	// accumulator order is exactly the scalar loop's, so the sum is
	// bit-identical; only the bounds checks and loop overhead go away.
	a, b := h.Counts, other.Counts[:len(h.Counts)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d += math.Abs(a[i]/ht - b[i]/ot)
		d += math.Abs(a[i+1]/ht - b[i+1]/ot)
		d += math.Abs(a[i+2]/ht - b[i+2]/ot)
		d += math.Abs(a[i+3]/ht - b[i+3]/ot)
	}
	for ; i < len(a); i++ {
		d += math.Abs(a[i]/ht - b[i]/ot)
	}
	return d
}

// Peak returns the most populated bin's representative colour (the centre
// of the quantization cell) and its normalized share of all pixels.
func (h *Histogram) Peak() (RGB, float64) {
	best, bestIdx := -1.0, 0
	for i, c := range h.Counts {
		if c > best {
			best, bestIdx = c, i
		}
	}
	share := 0.0
	if h.Total > 0 {
		share = best / h.Total
	}
	return h.binCenter(bestIdx), share
}

// binCenter maps a flat bin index back to the centre colour of its cell.
func (h *Histogram) binCenter(idx int) RGB {
	b := idx % h.Bins
	idx /= h.Bins
	g := idx % h.Bins
	r := idx / h.Bins
	half := 256 / (2 * h.Bins)
	toVal := func(bin int) uint8 {
		v := bin*256/h.Bins + half
		if v > 255 {
			v = 255
		}
		return uint8(v)
	}
	return RGB{toVal(r), toVal(g), toVal(b)}
}

// Entropy returns the Shannon entropy (bits) of the normalized histogram.
// Higher entropy means a more uniform colour distribution (e.g. audience
// shots); low entropy means one colour dominates (e.g. court shots).
func (h *Histogram) Entropy() float64 {
	if h.Total == 0 {
		return 0
	}
	var e float64
	for _, c := range h.Counts {
		if c > 0 {
			p := c / h.Total
			e -= p * math.Log2(p)
		}
	}
	return e
}

func mustSameBins(a, b *Histogram) {
	if a.Bins != b.Bins {
		panic(fmt.Sprintf("frame: histogram bin mismatch %d vs %d", a.Bins, b.Bins))
	}
}

// GrayHistogram is a 256-bin luminance histogram, used for the mean and
// variance characteristics the shot classifier relies on.
type GrayHistogram struct {
	Counts [256]float64
	Total  float64
}

// Mean returns the mean luminance in [0, 255].
func (h *GrayHistogram) Mean() float64 {
	if h.Total == 0 {
		return 0
	}
	var s float64
	for v, c := range h.Counts {
		s += float64(v) * c
	}
	return s / h.Total
}

// Variance returns the luminance variance.
func (h *GrayHistogram) Variance() float64 {
	if h.Total == 0 {
		return 0
	}
	m := h.Mean()
	var s float64
	for v, c := range h.Counts {
		d := float64(v) - m
		s += d * d * c
	}
	return s / h.Total
}
