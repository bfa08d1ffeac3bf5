package frame

import "math"

// Shape holds the moment-based shape descriptors the tennis detector
// extracts from the segmented player's binary representation. These are
// exactly the "standard shape features" the paper lists: the mass centre,
// the area, the bounding box, the orientation, and the eccentricity.
type Shape struct {
	// Area is the number of foreground pixels.
	Area int
	// CX, CY is the mass centre (centroid).
	CX, CY float64
	// BBox is the tight bounding box of the foreground.
	BBox Rect
	// Orientation is the angle (radians, in (-pi/2, pi/2]) of the major
	// axis of the equivalent ellipse, measured from the positive x axis.
	Orientation float64
	// Eccentricity is in [0, 1): 0 for a circle, approaching 1 for an
	// elongated shape.
	Eccentricity float64
	// MajorAxis and MinorAxis are the equivalent-ellipse axis lengths.
	MajorAxis, MinorAxis float64
	// Mu20, Mu02, Mu11 are the second-order central moments, normalized
	// by area (i.e. variance-like quantities).
	Mu20, Mu02, Mu11 float64
}

// ShapeOfRect computes the shape descriptors of the part of the mask inside
// r, which must lie within the mask, in coordinates relative to r's
// top-left corner: the shape of the sub-mask, without copying it out. If
// that part is empty the zero Shape is returned.
func ShapeOfRect(m *Mask, r Rect) Shape {
	var s Shape
	var sx, sy float64
	w, h := r.W(), r.H()
	s.BBox = Rect{w, h, 0, 0}
	for y := 0; y < h; y++ {
		for x, set := range m.row(r.Y0 + y)[r.X0:r.X1] {
			if !set {
				continue
			}
			s.Area++
			sx += float64(x)
			sy += float64(y)
			s.BBox.X0 = min(s.BBox.X0, x)
			s.BBox.Y0 = min(s.BBox.Y0, y)
			s.BBox.X1 = max(s.BBox.X1, x+1)
			s.BBox.Y1 = max(s.BBox.Y1, y+1)
		}
	}
	if s.Area == 0 {
		s.BBox = Rect{}
		return s
	}
	n := float64(s.Area)
	s.CX, s.CY = sx/n, sy/n
	// Second pass: central moments.
	var mu20, mu02, mu11 float64
	for y := 0; y < h; y++ {
		for x, set := range m.row(r.Y0 + y)[r.X0:r.X1] {
			if !set {
				continue
			}
			dx := float64(x) - s.CX
			dy := float64(y) - s.CY
			mu20 += dx * dx
			mu02 += dy * dy
			mu11 += dx * dy
		}
	}
	s.Mu20, s.Mu02, s.Mu11 = mu20/n, mu02/n, mu11/n
	s.Orientation = 0.5 * math.Atan2(2*s.Mu11, s.Mu20-s.Mu02)
	// Eigenvalues of the covariance matrix give the equivalent ellipse.
	common := math.Sqrt(4*s.Mu11*s.Mu11 + (s.Mu20-s.Mu02)*(s.Mu20-s.Mu02))
	l1 := (s.Mu20 + s.Mu02 + common) / 2
	l2 := (s.Mu20 + s.Mu02 - common) / 2
	if l2 < 0 {
		l2 = 0
	}
	s.MajorAxis = 4 * math.Sqrt(l1)
	s.MinorAxis = 4 * math.Sqrt(l2)
	if l1 > 0 {
		ecc2 := 1 - l2/l1
		if ecc2 < 0 {
			ecc2 = 0
		}
		s.Eccentricity = math.Sqrt(ecc2)
	}
	return s
}

// AspectRatio returns the bounding-box height/width ratio; a standing
// human figure typically has a ratio well above 1.
func (s Shape) AspectRatio() float64 {
	if s.BBox.W() == 0 {
		return 0
	}
	return float64(s.BBox.H()) / float64(s.BBox.W())
}
