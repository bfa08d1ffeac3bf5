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

// SkinRatio returns the fraction of pixels in the image classified as skin,
// in [0, 1].
func SkinRatio(im *Image) float64 {
	if im.W*im.H == 0 {
		return 0
	}
	n := 0
	for i := 0; i < len(im.Pix); i += 3 {
		if IsSkin(RGB{im.Pix[i], im.Pix[i+1], im.Pix[i+2]}) {
			n++
		}
	}
	return float64(n) / float64(im.W*im.H)
}

// SkinMask returns a binary mask marking skin-coloured pixels.
func SkinMask(im *Image) *Mask {
	m := NewMask(im.W, im.H)
	p := im.Pix
	for i := range m.Bits {
		m.Bits[i] = IsSkin(RGB{p[3*i], p[3*i+1], p[3*i+2]})
	}
	return m
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
	var s ColorStats
	var sr, sg, sb, sr2, sg2, sb2 float64
	for y := r.Y0; y < r.Y1; y++ {
		o := im.Offset(r.X0, y)
		for x := r.X0; x < r.X1; x++ {
			fr, fg, fb := float64(im.Pix[o]), float64(im.Pix[o+1]), float64(im.Pix[o+2])
			sr += fr
			sg += fg
			sb += fb
			sr2 += fr * fr
			sg2 += fg * fg
			sb2 += fb * fb
			o += 3
			s.N++
		}
	}
	if s.N == 0 {
		return s
	}
	n := float64(s.N)
	s.MeanR, s.MeanG, s.MeanB = sr/n, sg/n, sb/n
	s.StdR = stddev(sr2/n, s.MeanR)
	s.StdG = stddev(sg2/n, s.MeanG)
	s.StdB = stddev(sb2/n, s.MeanB)
	return s
}

// Mean returns the mean colour as an RGB value.
func (s ColorStats) Mean() RGB {
	return RGB{clamp255(s.MeanR), clamp255(s.MeanG), clamp255(s.MeanB)}
}

// Within reports whether colour c lies within k standard deviations of the
// mean on every channel. A floor of minStd is applied to each deviation so
// perfectly flat regions still tolerate small noise.
func (s ColorStats) Within(c RGB, k, minStd float64) bool {
	in := func(v, mean, std float64) bool {
		if std < minStd {
			std = minStd
		}
		d := v - mean
		if d < 0 {
			d = -d
		}
		return d <= k*std
	}
	return in(float64(c.R), s.MeanR, s.StdR) &&
		in(float64(c.G), s.MeanG, s.StdG) &&
		in(float64(c.B), s.MeanB, s.StdB)
}

func stddev(meanSq, mean float64) float64 {
	v := meanSq - mean*mean
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}
