package frame

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaskBasicOps(t *testing.T) {
	m := NewMask(8, 8)
	if m.Count() != 0 {
		t.Fatal("new mask not empty")
	}
	m.Set(3, 3, true)
	if !m.Get(3, 3) {
		t.Fatal("Set/Get round trip failed")
	}
	if m.Get(-1, 0) || m.Get(8, 0) {
		t.Fatal("out-of-bounds Get returned true")
	}
	m.Set(-1, -1, true) // must not panic
	if m.Count() != 1 {
		t.Fatalf("Count = %d, want 1", m.Count())
	}
}

func TestComponentsTwoRegions(t *testing.T) {
	m := NewMask(10, 10)
	// Region A: 2x2 square at (1,1).
	for y := 1; y < 3; y++ {
		for x := 1; x < 3; x++ {
			m.Set(x, y, true)
		}
	}
	// Region B: 3x1 line at (6,6).
	for x := 6; x < 9; x++ {
		m.Set(x, 6, true)
	}
	comps := m.Components()
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	if comps[0].Area != 4 || comps[1].Area != 3 {
		t.Fatalf("areas = %d,%d want 4,3", comps[0].Area, comps[1].Area)
	}
	if comps[0].BBox != (Rect{1, 1, 3, 3}) {
		t.Fatalf("bbox A = %v", comps[0].BBox)
	}
	if comps[1].BBox != (Rect{6, 6, 9, 7}) {
		t.Fatalf("bbox B = %v", comps[1].BBox)
	}
	cx, cy := comps[0].Centroid()
	if cx != 1.5 || cy != 1.5 {
		t.Fatalf("centroid A = (%v,%v)", cx, cy)
	}
}

func TestComponentsDiagonalNotConnected(t *testing.T) {
	m := NewMask(4, 4)
	m.Set(0, 0, true)
	m.Set(1, 1, true)
	if got := len(m.Components()); got != 2 {
		t.Fatalf("diagonal pixels formed %d components, want 2 (4-connectivity)", got)
	}
}

func TestLargestComponent(t *testing.T) {
	m := NewMask(10, 10)
	m.Set(0, 0, true)
	for x := 3; x < 8; x++ {
		m.Set(x, 5, true)
	}
	c, ok := m.Largest()
	if !ok || c.Area != 5 {
		t.Fatalf("Largest = %+v ok=%v", c, ok)
	}
	empty := NewMask(3, 3)
	if _, ok := empty.Largest(); ok {
		t.Fatal("empty mask returned a largest component")
	}
}

func TestErodeDilateInverse(t *testing.T) {
	m := NewMask(12, 12)
	for y := 3; y < 9; y++ {
		for x := 3; x < 9; x++ {
			m.Set(x, y, true)
		}
	}
	er := m.Erode()
	if er.Count() != 16 { // 6x6 erodes to 4x4
		t.Fatalf("eroded count = %d, want 16", er.Count())
	}
	di := er.Dilate()
	// Dilating the eroded square must stay within the original.
	for i, b := range di.Bits {
		if b && !m.Bits[i] {
			t.Fatal("open() escaped original mask")
		}
	}
}

func TestOpenRemovesSpeckle(t *testing.T) {
	m := NewMask(20, 20)
	// solid blob
	for y := 5; y < 15; y++ {
		for x := 5; x < 15; x++ {
			m.Set(x, y, true)
		}
	}
	// isolated noise pixels
	m.Set(0, 0, true)
	m.Set(19, 19, true)
	m.Set(2, 17, true)
	opened := m.Open()
	if opened.Get(0, 0) || opened.Get(19, 19) || opened.Get(2, 17) {
		t.Fatal("Open did not remove isolated pixels")
	}
	if !opened.Get(10, 10) {
		t.Fatal("Open destroyed blob interior")
	}
}

func TestCloseFillsHoles(t *testing.T) {
	m := NewMask(10, 10)
	for y := 2; y < 8; y++ {
		for x := 2; x < 8; x++ {
			m.Set(x, y, true)
		}
	}
	m.Set(5, 5, false) // one-pixel hole
	closed := m.Close()
	if !closed.Get(5, 5) {
		t.Fatal("Close did not fill one-pixel hole")
	}
}

// Property: component areas sum to the total number of set pixels.
func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMask(16, 16)
		for i := range m.Bits {
			m.Bits[i] = rng.Float64() < 0.4
		}
		total := 0
		for _, c := range m.Components() {
			total += c.Area
		}
		return total == m.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: erosion never adds pixels; dilation never removes them.
func TestMorphologyMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMask(12, 12)
		for i := range m.Bits {
			m.Bits[i] = rng.Float64() < 0.5
		}
		er, di := m.Erode(), m.Dilate()
		for i := range m.Bits {
			if er.Bits[i] && !m.Bits[i] {
				return false
			}
			if m.Bits[i] && !di.Bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSkinModel(t *testing.T) {
	skin := RGB{200, 140, 110}
	if !IsSkin(skin) {
		t.Fatal("typical skin tone not recognized")
	}
	for _, c := range []RGB{
		{40, 150, 60},   // court green
		{30, 60, 150},   // blue
		{250, 250, 250}, // white
		{0, 0, 0},       // black
	} {
		if IsSkin(c) {
			t.Errorf("%v misclassified as skin", c)
		}
	}
}

func TestSkinRatioAndMask(t *testing.T) {
	im := New(10, 10)
	im.Fill(RGB{40, 150, 60})
	im.FillRect(Rect{0, 0, 5, 10}, RGB{200, 140, 110})
	m := SkinMask(im)
	if m.Count() != 50 {
		t.Fatalf("skin mask count = %d, want 50", m.Count())
	}
}

func TestStatsOfRegion(t *testing.T) {
	im := New(10, 10)
	im.Fill(RGB{100, 150, 200})
	s := StatsOfRegion(im, im.Bounds())
	if s.MeanR != 100 || s.MeanG != 150 || s.MeanB != 200 {
		t.Fatalf("means = %v,%v,%v", s.MeanR, s.MeanG, s.MeanB)
	}
	if s.StdR != 0 || s.StdG != 0 || s.StdB != 0 {
		t.Fatal("flat region has nonzero std")
	}
	if !s.Within(RGB{100, 150, 200}, 2, 4) {
		t.Fatal("mean colour not Within its own stats")
	}
	if s.Within(RGB{200, 150, 200}, 2, 4) {
		t.Fatal("distant colour within flat stats")
	}
}

func TestStatsOfEmptyRegion(t *testing.T) {
	im := New(4, 4)
	s := StatsOfRegion(im, Rect{2, 2, 2, 2})
	if s.N != 0 {
		t.Fatalf("empty region N = %d", s.N)
	}
}
