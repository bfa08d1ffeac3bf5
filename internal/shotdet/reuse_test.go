package shotdet

import (
	"slices"
	"testing"

	"repro/internal/frame"
	"repro/internal/synth"
)

// feedReference is the pre-reuse streaming path: one fresh histogram per
// frame, no scratch recycling. The reuse paths must match it exactly.
func feedReference(frames []*frame.Image, threshold float64) []int {
	d := detector{threshold: threshold}
	var out []int
	for i, im := range frames {
		if _, cut := d.feed(frame.HistogramOf(im, bins)); cut {
			out = append(out, i)
		}
	}
	return out
}

// TestDetectBoundariesChunkRecycleMatchesReference drives Sweeper.Detect
// across multiple chunks (frames > ahead) so that the next batch overwrites
// the histograms of one the detector has read, and cross-checks the result
// against the per-frame reference. The wipe's transition run opens in the
// second batch and closes in the third, and the dissolve's and the fade's
// run over [18,30) in the second and the third, so a run's anchor and state
// are held across a batch.
func TestDetectBoundariesChunkRecycleMatchesReference(t *testing.T) {
	cfg := synth.DefaultConfig(78)
	cfg.Shots = 12
	v, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := v.Frames
	// Tile the video past one chunk so at least two chunk recycles happen.
	for len(frames) <= 2*ahead {
		frames = append(frames, v.Frames...)
	}
	dissolved, _, _ := transitionFrames(t, 12, dissolve)
	faded, _, _ := transitionFrames(t, 12, fade)
	for _, frames := range [][]*frame.Image{frames, wipeFrames(10), dissolved, faded} {
		for _, th := range []float64{Threshold, 0.2} {
			want := feedReference(frames, th)
			if got := new(Sweeper).Detect(frames, th); !slices.Equal(got, want) {
				t.Fatalf("threshold=%v frames=%d: boundaries %v, want %v", th, len(frames), got, want)
			}
		}
	}
}

// TestSweeperMatchesDetectBoundaries: a recycled Sweeper must answer every
// threshold byte-identically to a fresh Sweeper, in any order
// and across videos — the E2 threshold sweep is exactly this access
// pattern. The multi-chunk case exercises buffer reuse across both chunk
// boundaries and runs, and the wipe a transition run across a batch.
func TestSweeperMatchesDetectBoundaries(t *testing.T) {
	mk := func(seed int64, shots int) []*frame.Image {
		cfg := synth.DefaultConfig(seed)
		cfg.Shots = shots
		v, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return v.Frames
	}
	short := mk(81, 8)
	other := mk(83, 5)
	long := short
	for len(long) <= 2*ahead {
		long = append(long, short...)
	}
	thresholds := []float64{
		Threshold,
		0.05,
		1.6,
		0.2,
		Threshold, // repeat: state from earlier thresholds must not leak
	}
	var sw Sweeper
	for round := 0; round < 2; round++ {
		for _, frames := range [][]*frame.Image{short, other, wipeFrames(10), long, short} {
			for ti, th := range thresholds {
				want := new(Sweeper).Detect(frames, th)
				if got := sw.Detect(frames, th); !slices.Equal(got, want) {
					t.Fatalf("round=%d threshold=%d frames=%d: boundaries %v, want %v",
						round, ti, len(frames), got, want)
				}
			}
		}
	}
}

// TestSweeperSteadyStateAllocs encodes the E2 acceptance bound directly: a
// warm Sweeper run must allocate at least 5x fewer objects than a fresh
// Sweeper over the same frames.
func TestSweeperSteadyStateAllocs(t *testing.T) {
	cfg := synth.DefaultConfig(82)
	cfg.Shots = 4
	v, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One worker keeps goroutine spawns out of the alloc counts.
	sw := Sweeper{Workers: 1}
	sw.Detect(v.Frames, Threshold) // warm the chunk buffer
	warm := testing.AllocsPerRun(20, func() { sw.Detect(v.Frames, Threshold) })
	fresh := testing.AllocsPerRun(5, func() { (&Sweeper{Workers: 1}).Detect(v.Frames, Threshold) })
	if warm*5 > fresh {
		t.Fatalf("warm Sweeper allocates %.1f objects/run vs %.1f fresh (< 5x reduction)", warm, fresh)
	}
}

// TestSweeperDetectAbsoluteAllocs bounds the warm E2-sweep loop absolutely:
// once the chunk buffer is warm, a Detect run allocates only the boundary
// output slice — a handful of objects, independent of frame count. This is
// the guard for the restructured histogram kernel: a regression that
// reintroduces per-frame or per-bin allocation trips it immediately.
func TestSweeperDetectAbsoluteAllocs(t *testing.T) {
	cfg := synth.DefaultConfig(82)
	cfg.Shots = 4
	v, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One worker keeps goroutine spawns out of the alloc counts.
	sw := Sweeper{Workers: 1}
	sw.Detect(v.Frames, Threshold) // warm the chunk buffer
	allocs := testing.AllocsPerRun(20, func() { sw.Detect(v.Frames, Threshold) })
	if allocs > 8 {
		t.Fatalf("warm Sweeper.Detect allocates %.1f objects/run over %d frames, want <= 8", allocs, len(v.Frames))
	}
}
