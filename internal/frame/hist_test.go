package frame

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramAddImageTotal(t *testing.T) {
	im := New(8, 4)
	h := HistogramOf(im, 8)
	if h.Total != 32 {
		t.Fatalf("Total = %v, want 32", h.Total)
	}
	// All-black image: everything in bin 0.
	if h.Counts[0] != 32 {
		t.Fatalf("bin 0 = %v, want 32", h.Counts[0])
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(8)
	// 8 bins over 256 values: value 0 -> bin 0, 31 -> 0, 32 -> 1, 255 -> 7.
	for _, c := range []struct {
		v   uint8
		bin int
	}{{0, 0}, {31, 0}, {32, 1}, {128, 4}, {255, 7}} {
		if got := h.binOf(c.v); got != c.bin {
			t.Errorf("binOf(%d) = %d, want %d", c.v, got, c.bin)
		}
	}
}

func TestHistogramDistancesIdentical(t *testing.T) {
	im := New(16, 16)
	rng := rand.New(rand.NewSource(3))
	im.SpeckleNoise(rng, 1)
	h1 := HistogramOf(im, 8)
	h2 := HistogramOf(im, 8)
	if d := h1.L1Dist(h2); d != 0 {
		t.Fatalf("L1 self-distance = %v", d)
	}
}

func TestHistogramDistancesDisjoint(t *testing.T) {
	a := New(8, 8)
	a.Fill(RGB{0, 0, 0})
	b := New(8, 8)
	b.Fill(RGB{255, 255, 255})
	ha, hb := HistogramOf(a, 8), HistogramOf(b, 8)
	if d := ha.L1Dist(hb); math.Abs(d-2) > 1e-9 {
		t.Fatalf("disjoint L1 = %v, want 2", d)
	}
}

// Property: L1 distance is symmetric and bounded by [0, 2].
func TestHistL1Property(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := New(8, 8)
		a.SpeckleNoise(rand.New(rand.NewSource(seedA)), 1)
		b := New(8, 8)
		b.SpeckleNoise(rand.New(rand.NewSource(seedB)), 1)
		ha, hb := HistogramOf(a, 4), HistogramOf(b, 4)
		d1, d2 := ha.L1Dist(hb), hb.L1Dist(ha)
		return math.Abs(d1-d2) < 1e-12 && d1 >= 0 && d1 <= 2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPeak(t *testing.T) {
	im := New(10, 10)
	im.Fill(RGB{40, 150, 60}) // court green
	im.FillRect(Rect{0, 0, 3, 3}, RGB{250, 250, 250})
	h := HistogramOf(im, 8)
	peak, share := h.Peak()
	// Peak cell should be the one containing the court colour.
	if h.Index(peak) != h.Index(RGB{40, 150, 60}) {
		t.Fatalf("peak colour %v not in court-colour cell", peak)
	}
	want := float64(100-9) / 100
	if math.Abs(share-want) > 1e-9 {
		t.Fatalf("peak share = %v, want %v", share, want)
	}
}

func TestHistogramEntropyOrdering(t *testing.T) {
	flat := New(32, 32)
	flat.Fill(RGB{10, 200, 10})
	noisy := New(32, 32)
	noisy.SpeckleNoise(rand.New(rand.NewSource(7)), 1)
	hf, hn := HistogramOf(flat, 8), HistogramOf(noisy, 8)
	if hf.Entropy() >= hn.Entropy() {
		t.Fatalf("flat entropy %v should be below noisy entropy %v", hf.Entropy(), hn.Entropy())
	}
	if hf.Entropy() != 0 {
		t.Fatalf("single-colour entropy = %v, want 0", hf.Entropy())
	}
}

func TestHistogramRegionAccumulation(t *testing.T) {
	im := New(10, 10)
	im.FillRect(Rect{0, 0, 5, 10}, RGB{255, 0, 0})
	h := NewHistogram(4)
	h.AddRegion(im, Rect{0, 0, 5, 10})
	if h.Total != 50 {
		t.Fatalf("region total = %v, want 50", h.Total)
	}
	if h.Counts[h.Index(RGB{255, 0, 0})] != 50 {
		t.Fatal("region pixels not all in red cell")
	}
}

func TestHistogramBinMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bin mismatch did not panic")
		}
	}()
	NewHistogram(4).L1Dist(NewHistogram(8))
}

func TestGrayHistogramStats(t *testing.T) {
	g := GrayHistogram{Total: 256}
	g.Counts[128] = 256
	if math.Abs(g.Mean()-128) > 1 {
		t.Fatalf("mean = %v, want ~128", g.Mean())
	}
	if g.Variance() != 0 {
		t.Fatalf("variance of flat image = %v", g.Variance())
	}
	// Half black, half white.
	g2 := GrayHistogram{Total: 256}
	g2.Counts[0], g2.Counts[255] = 128, 128
	if g2.Variance() < 10000 {
		t.Fatalf("bimodal variance = %v, expected large", g2.Variance())
	}
}

func TestBinCenterWithinCell(t *testing.T) {
	h := NewHistogram(8)
	for i := 0; i < len(h.Counts); i++ {
		c := h.binCenter(i)
		if h.Index(c) != i {
			t.Fatalf("binCenter(%d) maps back to %d", i, h.Index(c))
		}
	}
}
