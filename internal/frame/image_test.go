package frame

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// pixel is the colour at (x, y), which must lie inside im.
func pixel(im *Image, x, y int) RGB {
	o := im.Offset(x, y)
	return RGB{im.Pix[o], im.Pix[o+1], im.Pix[o+2]}
}

func TestNewImageDimensions(t *testing.T) {
	im := New(16, 9)
	if im.W != 16 || im.H != 9 {
		t.Fatalf("got %dx%d, want 16x9", im.W, im.H)
	}
	if len(im.Pix) != 3*16*9 {
		t.Fatalf("pix len = %d, want %d", len(im.Pix), 3*16*9)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 5) did not panic")
		}
	}()
	New(0, 5)
}

func TestSetAtRoundTrip(t *testing.T) {
	im := New(8, 8)
	c := RGB{10, 20, 30}
	im.Set(3, 4, c)
	if got := pixel(im, 3, 4); got != c {
		t.Fatalf("At(3,4) = %v, want %v", got, c)
	}
	if got := pixel(im, 0, 0); got != (RGB{}) {
		t.Fatalf("untouched pixel = %v, want black", got)
	}
}

func TestSetOutOfBoundsIgnored(t *testing.T) {
	im := New(4, 4)
	im.Set(-1, -1, RGB{255, 0, 0})
	im.Set(4, 4, RGB{255, 0, 0})
	for _, b := range im.Pix {
		if b != 0 {
			t.Fatal("out-of-bounds Set modified pixels")
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	im := New(4, 4)
	im.Fill(RGB{1, 2, 3})
	cl := im.Clone()
	cl.Set(0, 0, RGB{99, 99, 99})
	if pixel(im, 0, 0) != (RGB{1, 2, 3}) {
		t.Fatal("Clone shares pixel storage with original")
	}
}

func TestFill(t *testing.T) {
	im := New(5, 3)
	im.Fill(RGB{7, 8, 9})
	for y := 0; y < 3; y++ {
		for x := 0; x < 5; x++ {
			if pixel(im, x, y) != (RGB{7, 8, 9}) {
				t.Fatalf("pixel (%d,%d) not filled", x, y)
			}
		}
	}
}

func TestRectCanonAndArea(t *testing.T) {
	r := Rect{10, 10, 2, 4}.Canon()
	if r != (Rect{2, 4, 10, 10}) {
		t.Fatalf("Canon = %v", r)
	}
	if r.Area() != 8*6 {
		t.Fatalf("Area = %d, want 48", r.Area())
	}
	if (Rect{5, 5, 5, 9}).Area() != 0 {
		t.Fatal("degenerate rect has nonzero area")
	}
}

func TestRectClip(t *testing.T) {
	im := New(10, 10)
	r := Rect{-5, -5, 20, 3}.Clip(im)
	if r != (Rect{0, 0, 10, 3}) {
		t.Fatalf("Clip = %v", r)
	}
	r = Rect{12, 12, 20, 20}.Clip(im)
	if !r.Empty() {
		t.Fatalf("fully outside rect clips to non-empty %v", r)
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 15, 15}
	got := a.Intersect(b)
	if got != (Rect{5, 5, 10, 10}) {
		t.Fatalf("Intersect = %v", got)
	}
	if !a.Intersect(Rect{20, 20, 30, 30}).Empty() {
		t.Fatal("disjoint rects intersect to non-empty")
	}
}

// Property: Intersect result is always contained in both operands.
func TestRectIntersectContainedProperty(t *testing.T) {
	f := func(a0, a1, a2, a3, b0, b1, b2, b3 int8) bool {
		a := Rect{int(a0), int(a1), int(a2), int(a3)}.Canon()
		b := Rect{int(b0), int(b1), int(b2), int(b3)}.Canon()
		in := a.Intersect(b)
		if in.Empty() {
			return true
		}
		return in.X0 >= a.X0 && in.X1 <= a.X1 && in.Y0 >= a.Y0 && in.Y1 <= a.Y1 &&
			in.X0 >= b.X0 && in.X1 <= b.X1 && in.Y0 >= b.Y0 && in.Y1 <= b.Y1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFillRectClipped(t *testing.T) {
	im := New(6, 6)
	im.FillRect(Rect{-2, -2, 3, 3}, RGB{255, 0, 0})
	if pixel(im, 0, 0) != (RGB{255, 0, 0}) || pixel(im, 2, 2) != (RGB{255, 0, 0}) {
		t.Fatal("FillRect did not paint clipped region")
	}
	if pixel(im, 3, 3) != (RGB{}) {
		t.Fatal("FillRect painted outside region")
	}
}

func TestFillEllipseInsideOnly(t *testing.T) {
	im := New(21, 21)
	im.FillEllipse(10, 10, 5, 8, RGB{0, 255, 0})
	if pixel(im, 10, 10) != (RGB{0, 255, 0}) {
		t.Fatal("ellipse centre not painted")
	}
	if pixel(im, 10, 2) != (RGB{0, 255, 0}) {
		t.Fatal("top of ellipse not painted")
	}
	if pixel(im, 0, 0) != (RGB{}) {
		t.Fatal("corner painted, outside the ellipse")
	}
	if pixel(im, 16, 10) != (RGB{}) {
		t.Fatal("point beyond rx painted")
	}
}

func TestAddNoiseBounded(t *testing.T) {
	im := New(32, 32)
	im.Fill(RGB{128, 128, 128})
	rng := rand.New(rand.NewSource(1))
	im.AddNoise(rng, 10)
	for i, b := range im.Pix {
		if b < 118 || b > 138 {
			t.Fatalf("pixel byte %d = %d escaped noise bound", i, b)
		}
	}
}

func TestSpeckleNoiseDensity(t *testing.T) {
	im := New(64, 64)
	rng := rand.New(rand.NewSource(2))
	im.SpeckleNoise(rng, 0.5)
	changed := 0
	for i := 0; i < len(im.Pix); i += 3 {
		if im.Pix[i] != 0 || im.Pix[i+1] != 0 || im.Pix[i+2] != 0 {
			changed++
		}
	}
	frac := float64(changed) / float64(64*64)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("speckle fraction = %v, want ~0.5", frac)
	}
}

func TestFillGradientMonotone(t *testing.T) {
	im := New(4, 32)
	im.FillGradient(im.Bounds(), RGB{0, 0, 0}, RGB{255, 255, 255})
	prev := -1.0
	for y := 0; y < 32; y++ {
		l := Luma(pixel(im, 0, y))
		if l < prev {
			t.Fatalf("gradient not monotone at row %d: %v < %v", y, l, prev)
		}
		prev = l
	}
}

func TestHVLine(t *testing.T) {
	im := New(10, 10)
	im.HLine(2, 8, 5, 2, RGB{1, 1, 1})
	if pixel(im, 2, 5) != (RGB{1, 1, 1}) || pixel(im, 7, 6) != (RGB{1, 1, 1}) {
		t.Fatal("HLine missing pixels")
	}
	if pixel(im, 8, 5) != (RGB{}) {
		t.Fatal("HLine painted past end (x1 exclusive)")
	}
	im.VLine(1, 0, 4, 1, RGB{2, 2, 2})
	if pixel(im, 1, 0) != (RGB{2, 2, 2}) || pixel(im, 1, 3) != (RGB{2, 2, 2}) {
		t.Fatal("VLine missing pixels")
	}
}
