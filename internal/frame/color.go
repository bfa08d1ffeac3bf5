package frame

import "math"

// Luma returns the ITU-R BT.601 luminance of a colour in [0, 255].
func Luma(c RGB) float64 {
	return 0.299*float64(c.R) + 0.587*float64(c.G) + 0.114*float64(c.B)
}

// HSV holds a colour in hue/saturation/value space.
// H is in degrees [0, 360), S and V in [0, 1].
type HSV struct {
	H, S, V float64
}

// ToHSV converts an RGB colour to HSV.
func ToHSV(c RGB) HSV {
	r := float64(c.R) / 255
	g := float64(c.G) / 255
	b := float64(c.B) / 255
	maxc := math.Max(r, math.Max(g, b))
	minc := math.Min(r, math.Min(g, b))
	d := maxc - minc
	var h float64
	switch {
	case d == 0:
		h = 0
	case maxc == r:
		h = 60 * math.Mod((g-b)/d, 6)
	case maxc == g:
		h = 60 * ((b-r)/d + 2)
	default:
		h = 60 * ((r-g)/d + 4)
	}
	if h < 0 {
		h += 360
	}
	var s float64
	if maxc > 0 {
		s = d / maxc
	}
	return HSV{H: h, S: s, V: maxc}
}

// ColorDist returns the Euclidean distance between two RGB colours,
// in [0, ~441.7].
func ColorDist(a, b RGB) float64 {
	dr := float64(a.R) - float64(b.R)
	dg := float64(a.G) - float64(b.G)
	db := float64(a.B) - float64(b.B)
	return math.Sqrt(dr*dr + dg*dg + db*db)
}

// Lerp linearly interpolates between colours a and b; t is clamped to [0,1].
func Lerp(a, b RGB, t float64) RGB {
	t = clamp01(t)
	return RGB{
		R: uint8(float64(a.R) + t*(float64(b.R)-float64(a.R)) + 0.5),
		G: uint8(float64(a.G) + t*(float64(b.G)-float64(a.G)) + 0.5),
		B: uint8(float64(a.B) + t*(float64(b.B)-float64(a.B)) + 0.5),
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func clamp255(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}
