package frame

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLumaExtremes(t *testing.T) {
	if got := Luma(RGB{0, 0, 0}); got != 0 {
		t.Fatalf("Luma(black) = %v", got)
	}
	if got := Luma(RGB{255, 255, 255}); math.Abs(got-255) > 1e-9 {
		t.Fatalf("Luma(white) = %v", got)
	}
	if Luma(RGB{0, 255, 0}) <= Luma(RGB{0, 0, 255}) {
		t.Fatal("green should be brighter than blue under BT.601")
	}
}

func TestHSVKnownValues(t *testing.T) {
	cases := []struct {
		in   RGB
		want HSV
	}{
		{RGB{255, 0, 0}, HSV{0, 1, 1}},
		{RGB{0, 255, 0}, HSV{120, 1, 1}},
		{RGB{0, 0, 255}, HSV{240, 1, 1}},
		{RGB{255, 255, 255}, HSV{0, 0, 1}},
		{RGB{0, 0, 0}, HSV{0, 0, 0}},
	}
	for _, c := range cases {
		got := ToHSV(c.in)
		if math.Abs(got.H-c.want.H) > 1e-6 || math.Abs(got.S-c.want.S) > 1e-6 || math.Abs(got.V-c.want.V) > 1e-6 {
			t.Errorf("ToHSV(%v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestColorDist(t *testing.T) {
	if d := ColorDist(RGB{0, 0, 0}, RGB{0, 0, 0}); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
	if d := ColorDist(RGB{0, 0, 0}, RGB{3, 4, 0}); math.Abs(d-5) > 1e-9 {
		t.Fatalf("3-4-5 distance = %v", d)
	}
}

// Property: ColorDist is symmetric and satisfies identity.
func TestColorDistMetricProperty(t *testing.T) {
	f := func(r1, g1, b1, r2, g2, b2 uint8) bool {
		a, b := RGB{r1, g1, b1}, RGB{r2, g2, b2}
		return ColorDist(a, b) == ColorDist(b, a) && (a != b || ColorDist(a, b) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLerpEndpoints(t *testing.T) {
	a, b := RGB{0, 10, 20}, RGB{200, 210, 220}
	if Lerp(a, b, 0) != a {
		t.Fatal("Lerp(t=0) != a")
	}
	if Lerp(a, b, 1) != b {
		t.Fatal("Lerp(t=1) != b")
	}
	mid := Lerp(a, b, 0.5)
	if absInt(int(mid.R)-100) > 1 {
		t.Fatalf("Lerp midpoint R = %d", mid.R)
	}
	if Lerp(a, b, -5) != a || Lerp(a, b, 7) != b {
		t.Fatal("Lerp does not clamp t")
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
