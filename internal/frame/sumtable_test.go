package frame

import (
	"math/rand"
	"testing"
)

// statsOfRegionFloat is StatsOfRegion as it accumulated before integer sums:
// float64 running sums per pixel. Kept as the oracle for the claim that
// integer sums give the same bits.
func statsOfRegionFloat(im *Image, r Rect) ColorStats {
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

// A summed-area table's statistics equal StatsOfRegion's, and both equal the
// float accumulation, for random rectangles — empty, inverted, touching or
// crossing the window's edges — over full-frame and windowed tables.
func TestSumTableMatchesStatsOfRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	im := New(61, 47)
	for i := range im.Pix {
		im.Pix[i] = uint8(rng.Intn(256))
	}
	im.FillRect(Rect{10, 10, 30, 20}, RGB{255, 255, 255}) // saturated squares
	var tab SumTable
	for _, win := range []Rect{im.Bounds(), {5, 3, 40, 30}, {-10, -10, 100, 100}, {60, 46, 61, 47}, {20, 20, 20, 30}, {-30, 5, -20, 9}} {
		tab.Reset(im, win)
		if got, want := tab.Window(), win.Clip(im); got != want {
			t.Fatalf("window %+v: table covers %+v, want %+v", win, got, want)
		}
		rects := []Rect{win, {0, 0, 0, 0}, {3, 3, 3, 9}, {9, 4, 2, 1}, {-5, -5, 70, 70}, {0, 0, 61, 47}, {60, 0, 61, 47}, {0, 46, 61, 47}}
		for i := 0; i < 500; i++ {
			rects = append(rects, Rect{rng.Intn(80) - 10, rng.Intn(70) - 10, rng.Intn(80) - 10, rng.Intn(70) - 10})
		}
		for _, r := range rects {
			inWin := r.Canon().Intersect(tab.Window())
			want := StatsOfRegion(im, inWin)
			if float := statsOfRegionFloat(im, inWin); want != float {
				t.Fatalf("rect %+v: integer sums %+v, float accumulation %+v", inWin, want, float)
			}
			if got := tab.Stats(r); got != want {
				t.Fatalf("window %+v rect %+v: table %+v, StatsOfRegion %+v", win, r, got, want)
			}
		}
	}
}
