package shotdet

import (
	"testing"

	"repro/internal/synth"
)

// Sweeper.Detect must produce identical boundaries at any worker count:
// histogram extraction is parallel but the decision stays sequential.
func TestDetectBoundariesWorkerInvariance(t *testing.T) {
	cfg := synth.DefaultConfig(42)
	cfg.Shots = 5
	v, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, dcfg := range []Config{
		DefaultConfig(),
		{Adaptive: true},
		{GradualLow: 0.08},
	} {
		base := dcfg
		base.Workers = 1
		want := new(Sweeper).Detect(v.Frames, base)
		for _, workers := range []int{0, 2, 8} {
			par := dcfg
			par.Workers = workers
			got := new(Sweeper).Detect(v.Frames, par)
			if len(got) != len(want) {
				t.Fatalf("cfg=%+v workers=%d: %d boundaries, want %d", dcfg, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("cfg=%+v workers=%d: boundary %d = %+v, want %+v", dcfg, workers, i, got[i], want[i])
				}
			}
		}
	}
}
