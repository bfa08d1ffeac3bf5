package track

import (
	"math"
	"slices"

	"repro/internal/frame"
)

// Court registration. The event rules reason over court zones in the
// coordinates of the standard framing: the broadcast camera the original
// system hard-wired, which shows the court's sidelines and net where
// standardLines says. A camera that pans, tilts or zooms shows the court
// elsewhere, so each frame of a shot is registered: its lines are measured
// and compared with the standard framing's, giving the Camera through which
// the frame shows the court.

const (
	// registerLines is the number of rows read for the sidelines and of
	// columns read for the net, spread evenly over the frame.
	registerLines = 8
	// lineWidth is the widest run of line pixels read as one line: a
	// 1-pixel line stays narrower under a zoom of up to 2×.
	lineWidth = 4
	// scaleSteps quantises a camera's scale to multiples of 1/scaleSteps,
	// so that a line measured a pixel off over the court's width does not
	// move an unmoved camera.
	scaleSteps = 32
	// minScale and maxScale bound the scale a frame is believed to show; a
	// measurement outside them keeps the previous frame's camera.
	minScale, maxScale = 0.5, 2
)

// Camera is where one frame shows the court: the point (x, y) of the
// standard framing, in the court coordinates the event rules read, is seen
// at (Scale·x + DX, Scale·y + DY). Scale is a multiple of 1/scaleSteps and
// DX, DY are whole pixels, so the camera of an unmoved frame is exactly
// standard, under which Court and Velocity return what they are given.
type Camera struct {
	Scale, DX, DY float64
}

// standard is the camera of the standard framing.
var standard = Camera{Scale: 1}

// Court maps the frame point (x, y) into court coordinates.
func (c Camera) Court(x, y float64) (float64, float64) {
	return (x - c.DX) / c.Scale, (y - c.DY) / c.Scale
}

// frame maps the court point (x, y) to where the frame shows it.
func (c Camera) frame(x, y float64) (float64, float64) {
	return c.Scale*x + c.DX, c.Scale*y + c.DY
}

// Velocity maps the velocity (vx, vy) seen at the frame point (x, y),
// against the previous frame seen through prev, into court coordinates:
// the change of the point's court position from the frame before. It is
// written so that between two standard frames it is exactly (vx, vy).
func (c Camera) Velocity(prev Camera, x, y, vx, vy float64) (float64, float64) {
	px, py := prev.Court(x-vx, y-vy)
	ds := c.Scale - prev.Scale
	return (vx - (c.DX - prev.DX) - ds*px) / c.Scale, (vy - (c.DY - prev.DY) - ds*py) / c.Scale
}

// A Move is a change of camera within a shot: from frame Frame on (until
// the next move) the shot is seen through Camera.
type Move struct {
	Frame int
	Camera
}

// standardLines are the court lines of the standard framing of a w×h frame
// in pixel edges: the left edge of the left sideline, the right edge of the
// right sideline and the top edge of the net's tape. The synthetic
// broadcasts are drawn in this framing; TestRegisterCourt holds the two
// together.
func standardLines(w, h int) (left, right, tape int) {
	return w * 3 / 16, w * 13 / 16, (h/4+h*15/16)/2 - 1
}

// register measures the camera of im from its lines: the sidelines along
// registerLines rows and the net's tape down as many columns, O(W+H) reads
// of s.bg's luminance bounds. A line pixel is brighter than lumaMax; a
// sideline is a narrow run of them between background pixels of two
// different clusters (the court inside, the surround outside), which tells
// it from the centre service line; the tape is a narrow run with background
// above and the net's band, darker than lumaMin, below. The medians over
// the rows and columns that show them are compared with standardLines. A
// frame that shows too few of them, or an implausible scale, keeps prev.
func (s *scratch) register(im *frame.Image, prev Camera) Camera {
	left0, right0, tape0 := standardLines(im.W, im.H)
	if right0-left0 < 2 || tape0 < 1 {
		return prev
	}
	var lefts, rights, tapes [registerLines]int
	nx, ny := 0, 0
	for k := range registerLines {
		if l, r, ok := s.sidelines(im, (2*k+1)*im.H/(2*registerLines)); ok {
			lefts[nx], rights[nx] = l, r
			nx++
		}
		if t, ok := s.tape(im, (2*k+1)*im.W/(2*registerLines)); ok {
			tapes[ny] = t
			ny++
		}
	}
	if nx < 3 || ny < 3 {
		return prev
	}
	left, right, tape := median(lefts[:nx]), median(rights[:nx]), median(tapes[:ny])
	scale := math.Round(scaleSteps*float64(right-left)/float64(right0-left0)) / scaleSteps
	if scale < minScale || scale > maxScale {
		return prev
	}
	return Camera{
		Scale: scale,
		DX:    math.Round((float64(left+right) - scale*float64(left0+right0)) / 2),
		DY:    math.Round(float64(tape) - scale*float64(tape0)),
	}
}

// median is the lower median of v, which it sorts.
func median(v []int) int {
	slices.Sort(v)
	return v[(len(v)-1)/2]
}

// pixel is the colour at offset o of pix.
func pixel(pix []byte, o int) frame.RGB {
	return frame.RGB{R: pix[o], G: pix[o+1], B: pix[o+2]}
}

// bright reports whether the pixel at offset o of pix is a line pixel:
// brighter than lumaMax. Its green alone rules most pixels out.
func (t *bgTable) bright(pix []byte, o int) bool {
	return int(pix[o+1]) >= t.lineG && frame.Luma(pixel(pix, o)) > t.lumaMax
}

// sidelines finds the sidelines along row y: the left edge of the leftmost
// sideline run and the right edge of the rightmost.
func (s *scratch) sidelines(im *frame.Image, y int) (left, right int, ok bool) {
	row := im.Pix[im.Offset(0, y):][:3*im.W]
	left, right = -1, -1
	for x := 1; x < im.W-1; {
		if !s.bg.bright(row, 3*x) {
			x++
			continue
		}
		end := x + 1
		for end < im.W && s.bg.bright(row, 3*end) {
			end++
		}
		if end-x <= lineWidth && end < im.W {
			a, b := pixel(row, 3*(x-1)), pixel(row, 3*end)
			if s.bg.match(a.R, a.G, a.B) && s.bg.match(b.R, b.G, b.B) && s.bg.nearest(a) != s.bg.nearest(b) {
				if left < 0 {
					left = x
				}
				right = end
			}
		}
		x = end
	}
	return left, right, left >= 0 && right-left > lineWidth
}

// tape finds the top edge of the net's tape down column x.
func (s *scratch) tape(im *frame.Image, x int) (int, bool) {
	for y := 1; y < im.H-1; {
		if !s.bg.bright(im.Pix, im.Offset(x, y)) {
			y++
			continue
		}
		end := y + 1
		for end < im.H && s.bg.bright(im.Pix, im.Offset(x, end)) {
			end++
		}
		if end-y <= lineWidth && end < im.H {
			above := pixel(im.Pix, im.Offset(x, y-1))
			if s.bg.match(above.R, above.G, above.B) && frame.Luma(pixel(im.Pix, im.Offset(x, end))) < s.bg.lumaMin {
				return y, true
			}
		}
		y = end
	}
	return 0, false
}
