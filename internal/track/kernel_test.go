package track

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/frame"
	"repro/internal/synth"
)

// shotBackgrounds returns the background models of the first tennis shot of
// three synth broadcasts.
func shotBackgrounds(t *testing.T) []Background {
	t.Helper()
	var bgs []Background
	for _, seed := range []int64{11, 12, 13} {
		cfg := synth.DefaultConfig(seed)
		cfg.Shots = 6
		v, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range v.Truth.Shots {
			if s.Class == synth.ClassTennis {
				bgs = append(bgs, backgroundOf(v.Frames[s.Start], defaults))
				break
			}
		}
	}
	if len(bgs) != 3 {
		t.Fatalf("found %d tennis shots in three broadcasts, want 3", len(bgs))
	}
	return bgs
}

// The background tables answer foregroundPixel's float tests for every one
// of the 2^24 colours.
func TestBGTableMatchesOracleExhaustive(t *testing.T) {
	cfg := defaults
	for i, bg := range shotBackgrounds(t) {
		if len(bg.Clusters) == 0 {
			t.Fatalf("broadcast %d: empty background model", i)
		}
		tab := newBGTable(&bg, &cfg)
		for v := 0; v < 1<<24; v++ {
			c := frame.RGB{R: uint8(v >> 16), G: uint8(v >> 8), B: uint8(v)}
			if got, want := tab.foreground(c.R, c.G, c.B), foregroundPixel(c, &bg, &cfg); got != want {
				t.Fatalf("broadcast %d, colour %v: table says foreground=%v, oracle %v", i, c, got, want)
			}
		}
	}
}

// More clusters than one table word holds: every word is consulted.
func TestBGTableMultiWord(t *testing.T) {
	cfg := defaults
	var bg Background
	for i := 0; i < 130; i++ {
		bg.Clusters = append(bg.Clusters, frame.ColorStats{
			MeanR: float64(i * 2), MeanG: float64(255 - i), MeanB: float64(i*7%256) + 0.5,
			StdR: 1, StdG: 2, StdB: float64(i % 9), N: 1,
		})
	}
	tab := newBGTable(&bg, &cfg)
	if tab.words != 3 {
		t.Fatalf("130 clusters in %d words, want 3", tab.words)
	}
	matched := 0
	for r := 0; r < 256; r += 3 {
		for g := 0; g < 256; g += 3 {
			for b := 0; b < 256; b += 5 {
				c := frame.RGB{R: uint8(r), G: uint8(g), B: uint8(b)}
				want := bg.Match(c, cfg.courtK, cfg.minStd)
				if got := tab.match(c.R, c.G, c.B); got != want {
					t.Fatalf("colour %v: table match=%v, oracle %v", c, got, want)
				}
				if want {
					matched++
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("no colour matched; the comparison is vacuous")
	}
}

// A frame smaller than the estimation grid: every pixel still votes, and a
// uniform frame is all background. With integer block edges W/8 = 0 every
// block was empty, the one cluster was {mean 0, N 0}, and the grey frame
// came out all foreground.
func TestEstimateBackgroundSmallFrame(t *testing.T) {
	cfg := defaults
	for _, size := range [][2]int{{6, 6}, {3, 20}, {20, 5}} {
		im := frame.New(size[0], size[1])
		im.Fill(frame.RGB{R: 128, G: 128, B: 128})
		bg := backgroundOf(im, cfg)
		if len(bg.Clusters) != 1 || bg.Clusters[0].N != size[0]*size[1] || bg.Clusters[0].MeanR != 128 {
			t.Fatalf("%dx%d grey frame: background %+v, want one grey cluster over every pixel", size[0], size[1], bg.Clusters)
		}
		s, _ := segmentWindow(im, bg, im.Bounds(), cfg)
		if n := slices.Index(s.seg.Bits, true); n >= 0 {
			t.Errorf("%dx%d grey frame: pixel %d is foreground, want none", size[0], size[1], n)
		}
	}
}

// FuzzQuadSegment: for any small frame, background model, configuration
// and window, the mask the tracker's windowed kernel writes (summed-area
// block statistics, table-driven leaf tests) is the per-pixel oracle's.
func FuzzQuadSegment(f *testing.F) {
	f.Add([]byte{20, 15, 2, 4, 8, 3, 0, 0, 40, 130, 60, 12, 12, 12, 200, 200, 200, 4, 4, 4, 40, 130, 60, 200, 150, 120})
	f.Add([]byte{23, 23, 1, 1, 0, 0, 255, 250, 250, 250, 0, 8, 16, 128, 128, 128, 60, 60, 60})
	many := []byte{17, 11, 70, 3, 200, 30, 1, 2, 60, 20}
	for i := 0; i < 70*6; i++ {
		many = append(many, byte(i*37))
	}
	f.Add(many)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		w, h := 1+int(data[0])%24, 1+int(data[1])%24
		nclusters := int(data[2]) % 80
		cfg := defaults
		cfg.quadMinBlock = 1 + int(data[3])%8
		cfg.courtK = float64(data[4]) / 32
		cfg.minStd = float64(data[5]) / 16
		cfg.lumaMin = float64(data[6])
		cfg.lumaMax = float64(data[7]) + 0.5
		win := frame.Rect{
			X0: int(int8(data[8])) % 30, Y0: int(int8(data[9])) % 30,
		}
		win.X1, win.Y1 = win.X0+w, win.Y0+h
		if len(data) > 11 {
			win.X1 = win.X0 + int(binary.LittleEndian.Uint16(data[10:]))%32
		}
		data = data[10:]
		var bg Background
		for i := 0; i < nclusters && len(data) >= 6; i++ {
			bg.Clusters = append(bg.Clusters, frame.ColorStats{
				MeanR: float64(data[0]) + 0.25, MeanG: float64(data[1]), MeanB: float64(data[2]) - 0.5,
				StdR: float64(data[3]) / 4, StdG: float64(data[4]) / 8, StdB: float64(data[5]) / 2, N: 1,
			})
			data = data[6:]
		}
		im := frame.New(w, h)
		for i := range im.Pix {
			if len(data) > 0 {
				im.Pix[i] = data[i%len(data)]
			}
		}

		s := &scratch{bg: newBGTable(&bg, &cfg)}
		s.segment(im, win, &cfg)
		got := s.sums.Window()
		want := refQuadSegment(im, bg, win, cfg)
		if got != win.Clip(im) {
			t.Fatalf("segmented window %+v, want %+v", got, win.Clip(im))
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				inWin := x >= got.X0 && x < got.X1 && y >= got.Y0 && y < got.Y1
				kernel := inWin && s.seg.Bits[(y-got.Y0)*s.seg.W+x-got.X0]
				if oracle := want.Bits[y*want.W+x]; kernel != oracle {
					t.Fatalf("pixel (%d,%d) colour %v: kernel %v, oracle %v (window %+v, %d clusters)",
						x, y, im.Pix[im.Offset(x, y):][:3], kernel, oracle, got, len(bg.Clusters))
				}
			}
		}
	})
}
