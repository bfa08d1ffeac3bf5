package track

import (
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/synth"
)

// refilm is im as a camera sees it that shows at pixel (x, y) the scene
// point back(x+0.5, y+0.5), each pixel taking the nearest source pixel,
// clamped into the frame.
func refilm(im *frame.Image, back func(x, y float64) (float64, float64)) *frame.Image {
	out := frame.New(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			sx, sy := back(float64(x)+0.5, float64(y)+0.5)
			ix := min(max(int(math.Floor(sx)), 0), im.W-1)
			iy := min(max(int(math.Floor(sy)), 0), im.H-1)
			copy(out.Pix[out.Offset(x, y):][:3], im.Pix[im.Offset(ix, iy):][:3])
		}
	}
	return out
}

// shifted is im with the camera moved so the scene appears dx, dy pixels
// right and down.
func shifted(im *frame.Image, dx, dy int) *frame.Image {
	return refilm(im, func(x, y float64) (float64, float64) { return x - float64(dx), y - float64(dy) })
}

// zoomed is im with the camera zoomed s times in on the frame's centre.
func zoomed(im *frame.Image, s float64) *frame.Image {
	cx, cy := float64(im.W)/2, float64(im.H)/2
	return refilm(im, func(x, y float64) (float64, float64) { return cx + (x-cx)/s, cy + (y-cy)/s })
}

// courtScratch is a scratch whose background model is the one TrackShot
// estimates from im as a shot's first frame.
func courtScratch(im *frame.Image) *scratch {
	bg := backgroundOf(im, defaults)
	return &scratch{bg: newBGTable(&bg, &defaults)}
}

// Registration is exactly the identity on unmoved frames of every script
// and of several frame sizes, and recovers a pan or tilt of whole pixels
// exactly and a zoom to its quantised scale.
func TestRegisterCourt(t *testing.T) {
	for _, size := range [][2]int{{160, 120}, {150, 110}, {200, 150}, {96, 72}} {
		cfg := synth.DefaultConfig(21)
		cfg.W, cfg.H = size[0], size[1]
		for _, script := range synth.Scripts() {
			frames, _, _, _, err := synth.RenderTennisShot(cfg, script, 30)
			if err != nil {
				t.Fatal(err)
			}
			s := courtScratch(frames[0])
			for i, im := range frames {
				if got := s.register(im, standard); got != standard {
					t.Fatalf("%dx%d %s frame %d: unmoved camera registers as %+v", size[0], size[1], script, i, got)
				}
			}
		}
	}

	frames, _, _ := renderShot(t, "rally", 1, 22)
	im := frames[0]
	s := courtScratch(im)
	for _, d := range [][2]int{{10, 0}, {-10, 0}, {0, 32}, {7, -5}, {-3, 12}} {
		want := Camera{Scale: 1, DX: float64(d[0]), DY: float64(d[1])}
		if got := s.register(shifted(im, d[0], d[1]), standard); got != want {
			t.Errorf("camera moved by %v: registered %+v, want %+v", d, got, want)
		}
	}
	for _, z := range []float64{1.125, 1.25} {
		got := s.register(zoomed(im, z), standard)
		// The zoom is about the frame's centre: x is seen at c + z(x-c).
		dx, dy := float64(im.W)/2*(1-z), float64(im.H)/2*(1-z)
		if got.Scale != z || math.Abs(got.DX-dx) > 1 || math.Abs(got.DY-dy) > 1 {
			t.Errorf("zoom %.3f: registered %+v, want scale %.3f and a shift within a pixel of (%.1f, %.1f)", z, got, z, dx, dy)
		}
	}
	blank := frame.New(im.W, im.H)
	blank.Fill(synth.SurroundColor)
	prev := Camera{Scale: 1, DX: 4, DY: -2}
	if got := s.register(blank, prev); got != prev {
		t.Errorf("a frame without lines registered as %+v, want the previous camera kept", got)
	}

	// Mapped back through its camera, a point of a moved frame is where the
	// standard framing shows it.
	cam := Camera{Scale: 1.25, DX: -20, DY: -15}
	if x, y := cam.Court(cam.frame(30, 70)); x != 30 || y != 70 {
		t.Errorf("Court(frame(30, 70)) = (%v, %v)", x, y)
	}
}

// The tennis shots of synth broadcasts, filmed by the fixed camera, make no
// camera move.
func TestStaticShotsDoNotMove(t *testing.T) {
	for _, seed := range []int64{11, 12, 13} {
		cfg := synth.DefaultConfig(seed)
		cfg.Shots = 6
		v, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range v.Truth.Shots {
			if s.Class != synth.ClassTennis {
				continue
			}
			if res := trackFrames(v.Frames[s.Start:s.End], defaults); len(res.Moves) != 0 {
				t.Errorf("broadcast %d, shot [%d,%d): camera moves %+v", seed, s.Start, s.End, res.Moves)
			}
		}
	}
}

// FuzzRegisterCourt: for any frame size from 1×1 and any pixels, a shot of
// two frames registers and tracks without panicking, and every camera and
// every position, in the frame and on the court, is finite.
func FuzzRegisterCourt(f *testing.F) {
	court, _, _, _, err := synth.RenderTennisShot(synth.Config{W: 64, H: 48, Noise: 4, Seed: 3}, "rally", 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), uint8(0), []byte{7})
	f.Add(uint8(63), uint8(47), court[0].Pix)
	f.Add(uint8(63), uint8(47), shifted(court[0], 5, -3).Pix)
	f.Add(uint8(63), uint8(47), zoomed(court[0], 1.9).Pix)
	f.Fuzz(func(t *testing.T, w, h uint8, pix []byte) {
		if len(pix) == 0 {
			return
		}
		W, H := 1+int(w)%96, 1+int(h)%96
		frames := []*frame.Image{frame.New(W, H), frame.New(W, H)}
		for i := range frames[0].Pix {
			frames[0].Pix[i] = pix[i%len(pix)]
			frames[1].Pix[i] = pix[(i+3*W+3)%len(pix)]
		}
		res := trackFrames(frames, defaults)
		finite := func(v ...float64) bool {
			for _, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return false
				}
			}
			return true
		}
		for _, m := range res.Moves {
			if !finite(m.Scale, m.DX, m.DY) || m.Scale <= 0 {
				t.Fatalf("%dx%d: camera move %+v", W, H, m)
			}
		}
		for _, tr := range []Track{res.Near, res.Far} {
			for i, o := range tr.Obs {
				cam := res.Camera(i)
				x, y := cam.Court(o.X, o.Y)
				vx, vy := cam.Velocity(res.Camera(max(i-1, 0)), o.X, o.Y, o.VX, o.VY)
				if !finite(o.X, o.Y, o.VX, o.VY, x, y, vx, vy) {
					t.Fatalf("%dx%d frame %d: observation %+v maps to court (%v, %v) moving (%v, %v)", W, H, i, o, x, y, vx, vy)
				}
			}
		}
	})
}
