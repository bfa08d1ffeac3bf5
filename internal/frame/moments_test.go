package frame

import (
	"math"
	"testing"
)

func rectMask(w, h int, r Rect) *Mask {
	m := &Mask{W: w, H: h, Bits: make([]bool, w*h)}
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			m.Bits[y*m.W+x] = true
		}
	}
	return m
}

func TestShapeOfSquare(t *testing.T) {
	m := rectMask(20, 20, Rect{5, 5, 15, 15})
	s := ShapeOfRect(m, Rect{0, 0, m.W, m.H})
	if s.Area != 100 {
		t.Fatalf("area = %d", s.Area)
	}
	if s.CX != 9.5 || s.CY != 9.5 {
		t.Fatalf("centroid = (%v,%v)", s.CX, s.CY)
	}
	if s.BBox != (Rect{5, 5, 15, 15}) {
		t.Fatalf("bbox = %v", s.BBox)
	}
	// A square has equal principal axes: eccentricity ~ 0.
	if s.Eccentricity > 1e-9 {
		t.Fatalf("square eccentricity = %v", s.Eccentricity)
	}
}

func TestShapeOfTallRectangle(t *testing.T) {
	// A standing-player-like shape: 6 wide, 24 tall.
	m := rectMask(40, 40, Rect{10, 5, 16, 29})
	s := ShapeOfRect(m, Rect{0, 0, m.W, m.H})
	if s.Area != 6*24 {
		t.Fatalf("area = %d", s.Area)
	}
	// Major axis must be vertical: orientation near ±pi/2.
	if math.Abs(math.Abs(s.Orientation)-math.Pi/2) > 1e-6 {
		t.Fatalf("orientation = %v, want ±pi/2", s.Orientation)
	}
	if s.Eccentricity < 0.9 {
		t.Fatalf("eccentricity = %v, want >0.9 for 4:1 rect", s.Eccentricity)
	}
	if s.AspectRatio() != 4 {
		t.Fatalf("aspect ratio = %v, want 4", s.AspectRatio())
	}
}

func TestShapeOfWideRectangleOrientation(t *testing.T) {
	m := rectMask(40, 40, Rect{5, 10, 29, 16})
	s := ShapeOfRect(m, Rect{0, 0, m.W, m.H})
	if math.Abs(s.Orientation) > 1e-6 {
		t.Fatalf("horizontal rect orientation = %v, want 0", s.Orientation)
	}
}

func TestShapeOfDiagonalLine(t *testing.T) {
	m := &Mask{W: 30, H: 30, Bits: make([]bool, 30*30)}
	for i := 0; i < 20; i++ {
		m.Bits[(5+i)*m.W+(5+i)] = true
	}
	s := ShapeOfRect(m, Rect{0, 0, m.W, m.H})
	// Orientation should be ~45 degrees. Note image y grows downward, so a
	// line with dy=dx has positive mu11 and orientation +pi/4.
	if math.Abs(s.Orientation-math.Pi/4) > 0.01 {
		t.Fatalf("diagonal orientation = %v, want ~pi/4", s.Orientation)
	}
	if s.Eccentricity < 0.99 {
		t.Fatalf("line eccentricity = %v", s.Eccentricity)
	}
}

func TestShapeOfEmptyMask(t *testing.T) {
	s := ShapeOfRect(&Mask{W: 8, H: 8, Bits: make([]bool, 8*8)}, Rect{0, 0, 8, 8})
	if s.Area != 0 || s.CX != 0 || s.CY != 0 {
		t.Fatalf("empty shape = %+v", s)
	}
	if s.AspectRatio() != 0 {
		t.Fatal("empty shape aspect ratio should be 0")
	}
}

func TestShapeOfSinglePixel(t *testing.T) {
	m := &Mask{W: 8, H: 8, Bits: make([]bool, 8*8)}
	m.Bits[6*m.W+4] = true
	s := ShapeOfRect(m, Rect{0, 0, m.W, m.H})
	if s.Area != 1 || s.CX != 4 || s.CY != 6 {
		t.Fatalf("single pixel shape = %+v", s)
	}
	if s.BBox != (Rect{4, 6, 5, 7}) {
		t.Fatalf("bbox = %v", s.BBox)
	}
}

func TestShapeTranslationInvariance(t *testing.T) {
	a := ShapeOfRect(rectMask(50, 50, Rect{2, 2, 8, 20}), Rect{0, 0, 50, 50})
	b := ShapeOfRect(rectMask(50, 50, Rect{30, 25, 36, 43}), Rect{0, 0, 50, 50})
	if math.Abs(a.Eccentricity-b.Eccentricity) > 1e-9 {
		t.Fatal("eccentricity not translation invariant")
	}
	if math.Abs(a.Orientation-b.Orientation) > 1e-9 {
		t.Fatal("orientation not translation invariant")
	}
	if a.Area != b.Area {
		t.Fatal("area not translation invariant")
	}
}

func TestEllipseShapeApproximation(t *testing.T) {
	im := New(60, 60)
	im.FillEllipse(30, 30, 20, 8, RGB{255, 255, 255})
	m := &Mask{W: 60, H: 60, Bits: make([]bool, 60*60)}
	for y := 0; y < 60; y++ {
		for x := 0; x < 60; x++ {
			if o := im.Offset(x, y); im.Pix[o] != 0 || im.Pix[o+1] != 0 || im.Pix[o+2] != 0 {
				m.Bits[y*m.W+x] = true
			}
		}
	}
	s := ShapeOfRect(m, Rect{0, 0, m.W, m.H})
	if math.Abs(s.CX-30) > 0.5 || math.Abs(s.CY-30) > 0.5 {
		t.Fatalf("ellipse centroid = (%v,%v)", s.CX, s.CY)
	}
	// Equivalent-ellipse axes should approximate 2*rx=40 and 2*ry=16.
	if math.Abs(s.MajorAxis-40) > 2 {
		t.Fatalf("major axis = %v, want ~40", s.MajorAxis)
	}
	if math.Abs(s.MinorAxis-16) > 2 {
		t.Fatalf("minor axis = %v, want ~16", s.MinorAxis)
	}
	if math.Abs(s.Orientation) > 0.02 {
		t.Fatalf("ellipse orientation = %v, want 0", s.Orientation)
	}
}
