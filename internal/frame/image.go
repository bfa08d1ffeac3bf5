// Package frame provides the raster and low-level feature primitives used
// by every video detector in the COBRA pipeline: images, colour-space
// conversions, histograms, first-order statistics, skin-colour and
// dominant-colour models, binary masks with connected components and
// morphology, and moment-based shape descriptors (mass centre, area,
// bounding box, orientation, eccentricity).
//
// The package corresponds to the "feature layer" primitives of the COBRA
// video data model: everything here is computed directly from raw pixels
// and consumed by the segment detector (internal/shotdet), the tennis
// detector (internal/track) and the event rules (internal/rules).
package frame

import "fmt"

// RGB is a packed 8-bit-per-channel colour.
type RGB struct {
	R, G, B uint8
}

// Image is an interleaved 8-bit RGB raster. Pixels are stored row-major,
// three bytes per pixel. The zero value is an empty image; use New to
// allocate a usable one.
type Image struct {
	W, H int
	// Pix holds interleaved RGB bytes; len(Pix) == 3*W*H.
	Pix []uint8
}

// New allocates a black image of the given dimensions.
// Width and height must be positive.
func New(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("frame: invalid dimensions %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]uint8, 3*w*h)}
}

// Offset returns the index into Pix of the pixel at (x, y).
// It performs no bounds checking.
func (im *Image) Offset(x, y int) int { return 3 * (y*im.W + x) }

// In reports whether (x, y) lies inside the image.
func (im *Image) In(x, y int) bool {
	return x >= 0 && y >= 0 && x < im.W && y < im.H
}

// Set writes the colour at (x, y). Out-of-bounds coordinates are ignored.
func (im *Image) Set(x, y int, c RGB) {
	if !im.In(x, y) {
		return
	}
	o := im.Offset(x, y)
	im.Pix[o], im.Pix[o+1], im.Pix[o+2] = c.R, c.G, c.B
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := New(im.W, im.H)
	copy(out.Pix, im.Pix)
	return out
}

// Fill paints the whole image with a single colour.
func (im *Image) Fill(c RGB) {
	for i := 0; i < len(im.Pix); i += 3 {
		im.Pix[i], im.Pix[i+1], im.Pix[i+2] = c.R, c.G, c.B
	}
}

// Rect is an integer rectangle, half-open on the right and bottom:
// it spans x in [X0, X1) and y in [Y0, Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Canon returns the rectangle with swapped edges fixed so X0<=X1, Y0<=Y1.
func (r Rect) Canon() Rect {
	if r.X0 > r.X1 {
		r.X0, r.X1 = r.X1, r.X0
	}
	if r.Y0 > r.Y1 {
		r.Y0, r.Y1 = r.Y1, r.Y0
	}
	return r
}

// W returns the rectangle width (zero if inverted).
func (r Rect) W() int {
	if r.X1 < r.X0 {
		return 0
	}
	return r.X1 - r.X0
}

// H returns the rectangle height (zero if inverted).
func (r Rect) H() int {
	if r.Y1 < r.Y0 {
		return 0
	}
	return r.Y1 - r.Y0
}

// Area returns the number of pixels covered by the rectangle.
func (r Rect) Area() int { return r.W() * r.H() }

// Empty reports whether the rectangle covers no pixels.
func (r Rect) Empty() bool { return r.W() == 0 || r.H() == 0 }

// Clip intersects the rectangle with the image bounds of im.
func (r Rect) Clip(im *Image) Rect {
	r = r.Canon()
	if r.X0 < 0 {
		r.X0 = 0
	}
	if r.Y0 < 0 {
		r.Y0 = 0
	}
	if r.X1 > im.W {
		r.X1 = im.W
	}
	if r.Y1 > im.H {
		r.Y1 = im.H
	}
	if r.X0 > r.X1 {
		r.X0 = r.X1
	}
	if r.Y0 > r.Y1 {
		r.Y0 = r.Y1
	}
	return r
}

// Shift returns the rectangle moved by (dx, dy).
func (r Rect) Shift(dx, dy int) Rect {
	return Rect{r.X0 + dx, r.Y0 + dy, r.X1 + dx, r.Y1 + dy}
}

// Intersect returns the intersection of two rectangles (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{max(r.X0, s.X0), max(r.Y0, s.Y0), min(r.X1, s.X1), min(r.Y1, s.Y1)}
	if out.X1 < out.X0 {
		out.X1 = out.X0
	}
	if out.Y1 < out.Y0 {
		out.Y1 = out.Y0
	}
	return out
}

// Bounds returns the rectangle covering the whole image.
func (im *Image) Bounds() Rect { return Rect{0, 0, im.W, im.H} }
