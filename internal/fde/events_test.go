package fde_test

import (
	"math"
	"testing"

	"repro/internal/eval"
	"repro/internal/fde"
	"repro/internal/frame"
	"repro/internal/rules"
	"repro/internal/synth"
	"repro/internal/track"
)

// panned is frames re-filmed by a camera that swings ±10 px left and right
// once every 48 frames, each pixel taking the nearest source pixel.
func panned(frames []*frame.Image) []*frame.Image {
	out := make([]*frame.Image, len(frames))
	for t, im := range frames {
		dx := int(math.Round(10 * math.Sin(2*math.Pi*float64(t)/48)))
		o := frame.New(im.W, im.H)
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				sx := min(max(x-dx, 0), im.W-1)
				copy(o.Pix[o.Offset(x, y):][:3], im.Pix[im.Offset(sx, y):][:3])
			}
		}
		out[t] = o
	}
	return out
}

// The full pipeline on all three scripts, filmed by the fixed camera and by
// a panning one: render → track → TrackToSeries → infer, and every scripted
// event is matched by an inferred one at interval IoU >= 0.5.
func TestEndToEndEventDetection(t *testing.T) {
	for _, script := range synth.Scripts() {
		cfg := synth.DefaultConfig(77)
		frames, _, _, truth, err := synth.RenderTennisShot(cfg, script, 70)
		if err != nil {
			t.Fatal(err)
		}
		e, err := rules.NewEngine(rules.TennisRules(), rules.StandardGeometry(cfg.W, cfg.H))
		if err != nil {
			t.Fatal(err)
		}
		var want []eval.Interval
		for _, ev := range truth {
			want = append(want, eval.Interval{Start: ev.Start, End: ev.End, Label: string(ev.Kind)})
		}
		for camera, shot := range map[string][]*frame.Image{"fixed": frames, "panning": panned(frames)} {
			res, err := new(track.ShotTracker).TrackShot(frame.Frames(shot), 0, len(shot))
			if err != nil {
				t.Fatal(err)
			}
			var got []eval.Interval
			dets := e.Detect(fde.TrackToSeries(res), len(shot))
			for _, d := range dets {
				got = append(got, eval.Interval{Start: d.Start, End: d.End, Label: d.Kind})
			}
			if pr := eval.MatchIntervals(got, want, 0.5); pr.FN != 0 {
				t.Errorf("%s, %s camera: %d of %d scripted events unmatched; truth %+v, detections %+v",
					script, camera, pr.FN, len(want), truth, dets)
			}
		}
	}
}
