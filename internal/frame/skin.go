package frame

import "math"

// IsSkin reports whether a colour falls inside a rule-based skin-colour
// model in RGB space. The shot classifier uses the fraction of skin pixels
// to recognize close-up shots, as described in the paper ("a shot is
// classified as close-up, if it contains a significant amount of skin
// colored pixels").
//
// The rule is the classic uniform-daylight RGB skin predicate:
//
//	R > 95, G > 40, B > 20,
//	max(R,G,B) - min(R,G,B) > 15,
//	|R - G| > 15, R > G, R > B.
func IsSkin(c RGB) bool {
	r, g, b := int(c.R), int(c.G), int(c.B)
	if r <= 95 || g <= 40 || b <= 20 {
		return false
	}
	maxc := r
	if g > maxc {
		maxc = g
	}
	if b > maxc {
		maxc = b
	}
	minc := r
	if g < minc {
		minc = g
	}
	if b < minc {
		minc = b
	}
	if maxc-minc <= 15 {
		return false
	}
	d := r - g
	if d < 0 {
		d = -d
	}
	return d > 15 && r > g && r > b
}

// ColorStats holds per-channel mean and standard deviation of a pixel
// region. The tennis detector estimates these statistics for the court
// colour and segments the player as pixels deviating from them.
type ColorStats struct {
	MeanR, MeanG, MeanB float64
	StdR, StdG, StdB    float64
	N                   int
}

// StatsOfRegion computes per-channel colour statistics over r (clipped).
func StatsOfRegion(im *Image, r Rect) ColorStats {
	r = r.Clip(im)
	var sums [6]int64
	for y := r.Y0; y < r.Y1; y++ {
		row := im.Pix[im.Offset(r.X0, y):im.Offset(r.X1, y)]
		for ; len(row) >= 3; row = row[3:] {
			cr, cg, cb := int64(row[0]), int64(row[1]), int64(row[2])
			sums[0] += cr
			sums[1] += cg
			sums[2] += cb
			sums[3] += cr * cr
			sums[4] += cg * cg
			sums[5] += cb * cb
		}
	}
	return statsFromSums(r.Area(), sums)
}

// statsFromSums builds the statistics of n pixels from their per-channel
// sums and sums of squares (R, G, B, R², G², B²). Integer sums are exact, and
// every one is below 2^53, so float64 of a sum is the sum a float64
// accumulation over the same pixels reaches: the statistics do not depend on
// whether the sums came from a pixel pass or a SumTable.
func statsFromSums(n int, sums [6]int64) ColorStats {
	if n == 0 {
		return ColorStats{}
	}
	nf := float64(n)
	s := ColorStats{N: n}
	s.MeanR, s.MeanG, s.MeanB = float64(sums[0])/nf, float64(sums[1])/nf, float64(sums[2])/nf
	s.StdR = stddev(float64(sums[3])/nf, s.MeanR)
	s.StdG = stddev(float64(sums[4])/nf, s.MeanG)
	s.StdB = stddev(float64(sums[5])/nf, s.MeanB)
	return s
}

// SumTable is a summed-area table over one window of an image: for every
// pixel corner of the window it holds the sums of R, G, B, R², G² and B² over
// the window's pixels above and to the left of it, so the ColorStats of any
// rectangle inside the window cost four lookups instead of a pass over its
// pixels, and equal StatsOfRegion's exactly (see statsFromSums). The zero
// value is ready for Reset, which reuses the table's storage.
type SumTable struct {
	win   Rect
	cells [][6]int64 // (W+1)×(H+1) corners, row-major; row 0 and column 0 are zero
}

// Reset rebuilds the table over the window r of im (clipped to the image).
func (t *SumTable) Reset(im *Image, r Rect) {
	r = r.Clip(im)
	t.win = r
	w, h := r.W(), r.H()
	stride := w + 1
	if n := stride * (h + 1); cap(t.cells) < n {
		t.cells = make([][6]int64, n)
	} else {
		t.cells = t.cells[:n]
	}
	clear(t.cells[:stride])
	for y := 0; y < h && w > 0; y++ {
		above := t.cells[y*stride+1 : (y+1)*stride]
		cur := t.cells[(y+1)*stride : (y+2)*stride]
		cur[0] = [6]int64{}
		cur = cur[1:][:len(above)]
		row := im.Pix[im.Offset(r.X0, r.Y0+y):im.Offset(r.X1, r.Y0+y)]
		var sr, sg, sb, sr2, sg2, sb2 int64
		for x := range cur {
			px := row[3*x : 3*x+3 : 3*x+3]
			cr, cg, cb := int64(px[0]), int64(px[1]), int64(px[2])
			sr += cr
			sg += cg
			sb += cb
			sr2 += cr * cr
			sg2 += cg * cg
			sb2 += cb * cb
			a, c := &above[x], &cur[x]
			c[0], c[1], c[2] = a[0]+sr, a[1]+sg, a[2]+sb
			c[3], c[4], c[5] = a[3]+sr2, a[4]+sg2, a[5]+sb2
		}
	}
}

// Window returns the rectangle the table covers.
func (t *SumTable) Window() Rect { return t.win }

// Stats returns the colour statistics of r clipped to the table's window.
func (t *SumTable) Stats(r Rect) ColorStats {
	r = r.Canon().Intersect(t.win)
	if r.Empty() {
		return ColorStats{}
	}
	stride := t.win.W() + 1
	x0, x1 := r.X0-t.win.X0, r.X1-t.win.X0
	y0, y1 := (r.Y0-t.win.Y0)*stride, (r.Y1-t.win.Y0)*stride
	a, b, c, d := &t.cells[y0+x0], &t.cells[y0+x1], &t.cells[y1+x0], &t.cells[y1+x1]
	var sums [6]int64
	for i := range sums {
		sums[i] = d[i] - b[i] - c[i] + a[i]
	}
	return statsFromSums(r.Area(), sums)
}

// Mean returns the mean colour as an RGB value.
func (s ColorStats) Mean() RGB {
	return RGB{clamp255(s.MeanR), clamp255(s.MeanG), clamp255(s.MeanB)}
}

// Within reports whether colour c lies within k standard deviations of the
// mean on every channel. A floor of minStd is applied to each deviation so
// perfectly flat regions still tolerate small noise.
func (s ColorStats) Within(c RGB, k, minStd float64) bool {
	return s.ChannelWithin(0, c.R, k, minStd) &&
		s.ChannelWithin(1, c.G, k, minStd) &&
		s.ChannelWithin(2, c.B, k, minStd)
}

// ChannelWithin is Within's test of one channel (0 R, 1 G, 2 B): whether v
// lies within k deviations, floored at minStd, of that channel's mean.
func (s ColorStats) ChannelWithin(ch int, v uint8, k, minStd float64) bool {
	mean, std := s.MeanR, s.StdR
	switch ch {
	case 1:
		mean, std = s.MeanG, s.StdG
	case 2:
		mean, std = s.MeanB, s.StdB
	}
	if std < minStd {
		std = minStd
	}
	d := float64(v) - mean
	if d < 0 {
		d = -d
	}
	return d <= k*std
}

func stddev(meanSq, mean float64) float64 {
	v := meanSq - mean*mean
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}
