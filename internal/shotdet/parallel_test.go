package shotdet

import (
	"slices"
	"testing"

	"repro/internal/frame"
	"repro/internal/synth"
)

// Sweeper.Detect must produce identical boundaries at any worker count:
// histogram extraction is parallel but the decision stays sequential. The
// broadcast cuts hard; the wipe is found by a transition run that spans a
// batch.
func TestDetectBoundariesWorkerInvariance(t *testing.T) {
	cfg := synth.DefaultConfig(42)
	cfg.Shots = 5
	v, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, frames := range [][]*frame.Image{v.Frames, wipeFrames(10)} {
		for _, th := range []float64{Threshold, 0.2} {
			want := (&Sweeper{Workers: 1}).Detect(frames, th)
			for _, workers := range []int{0, 2, 8} {
				got := (&Sweeper{Workers: workers}).Detect(frames, th)
				if !slices.Equal(got, want) {
					t.Fatalf("threshold=%v workers=%d frames=%d: boundaries %v, want %v", th, workers, len(frames), got, want)
				}
			}
		}
	}
}
