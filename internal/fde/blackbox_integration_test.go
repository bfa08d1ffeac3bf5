package fde

import (
	"math"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/shotdet"
	"repro/internal/synth"
)

// TestRealSegdetBinary builds the actual cmd/segdet black-box detector and
// checks that, driven through BlackBoxSegment, it yields the same shots
// (start, end, class) and the same index as the in-process segment
// detector — on a broadcast that cuts hard, and on the hard corpus's wipe-10
// and dissolve-12 videos, whose boundaries only the twin-threshold rule
// finds. segdet takes no options, so this is what keeps it equal to ingest.
func TestRealSegdetBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary build")
	}
	bin := filepath.Join(t.TempDir(), "segdet")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/segdet")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building segdet: %v\n%s", err, out)
	}
	white, err := NewTennisEngine(DefaultTennisConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTennisConfig()
	cfg.SegmentImpl = BlackBoxSegment(bin)
	black, err := NewTennisEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		v    *synth.Video
	}{
		{"broadcast", genVideo(t, 60, 5)},
		{"wipe 10", hardTransitions(t, 10, hardWipe)},
		{"dissolve 12", hardTransitions(t, 12, hardDissolve)},
	} {
		doc := coreVideo(c.v, "bb-integration")
		wres, err := white.Process(doc, c.v.Frames)
		if err != nil {
			t.Fatal(err)
		}
		bres, err := black.Process(doc, c.v.Frames)
		if err != nil {
			t.Fatal(err)
		}
		ws := wres.mustShots(t)
		bs := bres.mustShots(t)
		if len(ws) != len(bs) {
			t.Fatalf("%s: white-box %d shots, black-box %d", c.name, len(ws), len(bs))
		}
		// The SHOT protocol carries boundaries and classes, not the
		// classifier-internal features; compare what crosses the boundary.
		for i := range ws {
			if ws[i].Start != bs[i].Start || ws[i].End != bs[i].End || ws[i].Class != bs[i].Class {
				t.Fatalf("%s: shot %d differs: white %v black %v", c.name, i, ws[i], bs[i])
			}
		}
		// Both parses index identically.
		wi, _ := core.NewMetaIndex()
		bi, _ := core.NewMetaIndex()
		if _, err := IndexResult(wres, wi); err != nil {
			t.Fatal(err)
		}
		if _, err := IndexResult(bres, bi); err != nil {
			t.Fatal(err)
		}
		if wi.Stats() != bi.Stats() {
			t.Fatalf("%s: index stats differ: %+v vs %+v", c.name, wi.Stats(), bi.Stats())
		}
	}
}

// hardTransitions is the hard corpus's base broadcast (hardcorpus_test.go in
// the root package: seed 9100, eight shots of 48–64 frames) with every cut
// replaced, as that corpus replaces it, by an n-frame transition mixing the
// outgoing shot's last n frames with the incoming shot's first n.
func hardTransitions(t *testing.T, n int, mix func(a, b *frame.Image, k, n int) *frame.Image) *synth.Video {
	t.Helper()
	cfg := synth.DefaultConfig(9100)
	cfg.Shots, cfg.MinShotLen, cfg.MaxShotLen = 8, 48, 64
	base, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := &synth.Video{W: base.W, H: base.H, FPS: base.FPS}
	for i, s := range base.Truth.Shots {
		frames := base.Frames[s.Start:s.End]
		if i > 0 {
			tail := v.Frames[len(v.Frames)-n:]
			for k := range tail {
				tail[k] = mix(tail[k], frames[k], k, n)
			}
			frames = frames[n:]
		}
		v.Frames = append(v.Frames, frames...)
	}
	return v
}

// hardDissolve cross-fades linearly: frame k of n holds (k+1)/(n+1) of b.
func hardDissolve(a, b *frame.Image, k, n int) *frame.Image {
	w := float64(k+1) / float64(n+1)
	out := frame.New(a.W, a.H)
	for i := range out.Pix {
		out.Pix[i] = uint8(math.Round((1-w)*float64(a.Pix[i]) + w*float64(b.Pix[i])))
	}
	return out
}

// hardWipe sweeps b in from the left: frame k of n shows b left of column
// W(k+1)/(n+1).
func hardWipe(a, b *frame.Image, k, n int) *frame.Image {
	out := a.Clone()
	x1 := a.W * (k + 1) / (n + 1)
	for y := 0; y < a.H; y++ {
		row := a.Offset(0, y)
		copy(out.Pix[row:row+3*x1], b.Pix[row:row+3*x1])
	}
	return out
}

func (r *Result) mustShots(t *testing.T) []shotdet.Shot {
	t.Helper()
	v, ok := r.Get("shots")
	if !ok {
		t.Fatal("no shots symbol")
	}
	shots, ok := v.([]shotdet.Shot)
	if !ok {
		t.Fatalf("shots has type %T", v)
	}
	return shots
}
