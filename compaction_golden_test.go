package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/synth"
)

// The sha256 of the SaveIndex bytes of compactionGoldenLib after Compact(2)
// and after a further Compact(0). They were recorded at commit 20b157b,
// before compaction stopped replaying rows video by video: merging segments
// must keep every ID and row, byte for byte, however it is done.
const (
	compactCappedSHA256 = "0738dea2e155a452f9ea1b85216547f1f93bc2fabfc7444335b9304f3f1c2272"
	compactFullSHA256   = "f5a3a22fe4603954a9bfbe28b75755511f40c71a3530ea8f847279ea22916c96"
)

// compactionGoldenLib indexes six broadcasts in dlbench's shape (3 shots x
// 32 frames, 160x120) as four segments of 2, 2, 1 and 1 videos: one batch
// into the first segment, then three commits.
func compactionGoldenLib(t *testing.T) *Library {
	t.Helper()
	jobs := make([]IngestJob, 6)
	for i := range jobs {
		cfg := synth.DefaultConfig(int64(525200 + i))
		cfg.Shots = 3
		cfg.MinShotLen, cfg.MaxShotLen = 32, 32
		b, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = IngestJob{Name: fmt.Sprintf("golden-%02d", i), Frames: b.Frames, FPS: b.FPS}
	}
	return buildSegmentedLib(t, jobs, 2, 2, 1, 1)
}

// TestCompactionGolden locks the compaction half of "same frames -> same
// index": a capped and then a full compaction of a four-segment library
// must save to the bytes recorded before the merge was rewritten.
func TestCompactionGolden(t *testing.T) {
	lib := compactionGoldenLib(t)
	if n := lib.View().NumSegments(); n != 4 {
		t.Fatalf("built %d segments, want 4", n)
	}
	if st := lib.View().Stats(); st.Objects == 0 || st.Events == 0 {
		t.Fatalf("corpus has no objects or no events to renumber: %+v", st)
	}
	for _, step := range []struct {
		target, segments int
		want             string
	}{
		{2, 3, compactCappedSHA256},
		{0, 1, compactFullSHA256},
	} {
		if changed, err := lib.Compact(step.target); err != nil || !changed {
			t.Fatalf("Compact(%d): changed=%t, %v", step.target, changed, err)
		}
		if n := lib.View().NumSegments(); n != step.segments {
			t.Fatalf("Compact(%d) left %d segments, want %d", step.target, n, step.segments)
		}
		var buf bytes.Buffer
		if err := lib.SaveIndex(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != step.want {
			t.Errorf("Compact(%d): SaveIndex sha256 = %s, want %s", step.target, got, step.want)
		}
	}
}
