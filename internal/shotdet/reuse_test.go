package shotdet

import (
	"slices"
	"testing"

	"repro/internal/frame"
	"repro/internal/synth"
)

// feedReference is the pre-reuse streaming path: one fresh histogram per
// frame, no scratch recycling. The reuse paths must match it exactly.
func feedReference(frames []*frame.Image, cfg Config) []int {
	d := &Detector{cfg: cfg.withDefaults()}
	var out []int
	for i, im := range frames {
		if d.FeedHistogram(frame.HistogramOf(im, d.cfg.Bins)) {
			out = append(out, i)
		}
	}
	return out
}

// TestDetectBoundariesChunkRecycleMatchesReference drives Sweeper.Detect
// across multiple chunks (frames > ahead) so chunk recycling actually
// exercises the prev/anchor retention logic, and cross-checks the result
// against the per-frame reference. The wipe's transition run opens in the
// second batch and closes in the third, so its anchor histogram is held
// across a batch.
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
	for _, frames := range [][]*frame.Image{frames, wipeFrames(10)} {
		for _, dcfg := range []Config{DefaultConfig(), {Threshold: 0.2}} {
			want := feedReference(frames, dcfg)
			if got := new(Sweeper).Detect(frames, dcfg); !slices.Equal(got, want) {
				t.Fatalf("cfg=%+v frames=%d: boundaries %v, want %v", dcfg, len(frames), got, want)
			}
		}
	}
}

// TestSweeperMatchesDetectBoundaries: a recycled Sweeper must answer every
// configuration byte-identically to a fresh Sweeper, in any order
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
	configs := []Config{
		DefaultConfig(),
		{Threshold: 0.05},
		{Threshold: 1.6},
		{Threshold: 0.2},
		DefaultConfig(), // repeat: state from earlier configs must not leak
	}
	var sw Sweeper
	for round := 0; round < 2; round++ {
		for _, frames := range [][]*frame.Image{short, other, wipeFrames(10), long, short} {
			for ci, dcfg := range configs {
				want := new(Sweeper).Detect(frames, dcfg)
				if got := sw.Detect(frames, dcfg); !slices.Equal(got, want) {
					t.Fatalf("round=%d cfg=%d frames=%d: boundaries %v, want %v",
						round, ci, len(frames), got, want)
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
	dcfg := DefaultConfig()
	dcfg.Workers = 1 // keep goroutine spawns out of the alloc counts
	var sw Sweeper
	sw.Detect(v.Frames, dcfg) // warm the chunk buffer
	warm := testing.AllocsPerRun(20, func() { sw.Detect(v.Frames, dcfg) })
	fresh := testing.AllocsPerRun(5, func() { new(Sweeper).Detect(v.Frames, dcfg) })
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
	dcfg := DefaultConfig()
	dcfg.Workers = 1 // keep goroutine spawns out of the alloc counts
	var sw Sweeper
	sw.Detect(v.Frames, dcfg) // warm the chunk buffer
	allocs := testing.AllocsPerRun(20, func() { sw.Detect(v.Frames, dcfg) })
	if allocs > 8 {
		t.Fatalf("warm Sweeper.Detect allocates %.1f objects/run over %d frames, want <= 8", allocs, len(v.Frames))
	}
}
