package frame

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestComponentsTwoRegions(t *testing.T) {
	m := &Mask{W: 10, H: 10, Bits: make([]bool, 10*10)}
	// Region A: 2x2 square at (1,1).
	for y := 1; y < 3; y++ {
		for x := 1; x < 3; x++ {
			m.Bits[y*m.W+x] = true
		}
	}
	// Region B: 3x1 line at (6,6).
	for x := 6; x < 9; x++ {
		m.Bits[6*m.W+x] = true
	}
	comps := new(Labeler).Components(m)
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
	m := &Mask{W: 4, H: 4, Bits: make([]bool, 4*4)}
	m.Bits[0*m.W+0] = true
	m.Bits[1*m.W+1] = true
	if got := len(new(Labeler).Components(m)); got != 2 {
		t.Fatalf("diagonal pixels formed %d components, want 2 (4-connectivity)", got)
	}
}

func TestErodeDilateInverse(t *testing.T) {
	m := &Mask{W: 12, H: 12, Bits: make([]bool, 12*12)}
	for y := 3; y < 9; y++ {
		for x := 3; x < 9; x++ {
			m.Bits[y*m.W+x] = true
		}
	}
	er := m.ErodeInto(new(Mask))
	if setBits(er) != 16 { // 6x6 erodes to 4x4
		t.Fatalf("eroded count = %d, want 16", setBits(er))
	}
	di := er.DilateInto(new(Mask))
	// Dilating the eroded square must stay within the original.
	for i, b := range di.Bits {
		if b && !m.Bits[i] {
			t.Fatal("open() escaped original mask")
		}
	}
}

func TestOpenRemovesSpeckle(t *testing.T) {
	m := &Mask{W: 20, H: 20, Bits: make([]bool, 20*20)}
	// solid blob
	for y := 5; y < 15; y++ {
		for x := 5; x < 15; x++ {
			m.Bits[y*m.W+x] = true
		}
	}
	// isolated noise pixels
	m.Bits[0*m.W+0] = true
	m.Bits[19*m.W+19] = true
	m.Bits[17*m.W+2] = true
	opened := m.ErodeInto(new(Mask)).DilateInto(new(Mask))
	if bit(opened, 0, 0) || bit(opened, 19, 19) || bit(opened, 2, 17) {
		t.Fatal("Open did not remove isolated pixels")
	}
	if !bit(opened, 10, 10) {
		t.Fatal("Open destroyed blob interior")
	}
}

func TestCloseFillsHoles(t *testing.T) {
	m := &Mask{W: 10, H: 10, Bits: make([]bool, 10*10)}
	for y := 2; y < 8; y++ {
		for x := 2; x < 8; x++ {
			m.Bits[y*m.W+x] = true
		}
	}
	m.Bits[5*m.W+5] = false // one-pixel hole
	closed := m.DilateInto(new(Mask)).ErodeInto(new(Mask))
	if !bit(closed, 5, 5) {
		t.Fatal("Close did not fill one-pixel hole")
	}
}

// Property: component areas sum to the total number of set pixels.
func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Mask{W: 16, H: 16, Bits: make([]bool, 16*16)}
		for i := range m.Bits {
			m.Bits[i] = rng.Float64() < 0.4
		}
		total := 0
		for _, c := range new(Labeler).Components(m) {
			total += c.Area
		}
		return total == setBits(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: erosion never adds pixels; dilation never removes them.
func TestMorphologyMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Mask{W: 12, H: 12, Bits: make([]bool, 12*12)}
		for i := range m.Bits {
			m.Bits[i] = rng.Float64() < 0.5
		}
		er, di := m.ErodeInto(new(Mask)), m.DilateInto(new(Mask))
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
