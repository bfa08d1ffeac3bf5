package frame

import (
	"testing"
)

// TestSetImageMatchesHistogramOf: recomputing into a dirty reused histogram
// must equal a fresh computation.
func TestSetImageMatchesHistogramOf(t *testing.T) {
	frames := randomFrames(6, 32, 24, 91)
	h := NewHistogram(8)
	for i, im := range frames {
		h.SetImage(im) // h carries the previous frame's counts each round
		want := HistogramOf(im, 8)
		if h.Total != want.Total {
			t.Fatalf("frame %d: total %v != %v", i, h.Total, want.Total)
		}
		for b := range h.Counts {
			if h.Counts[b] != want.Counts[b] {
				t.Fatalf("frame %d bin %d: %v != %v", i, b, h.Counts[b], want.Counts[b])
			}
		}
	}
}

// TestHistogramsIntoReuse: recycled buffers — including nil slots and
// bin-count mismatches — must produce output identical to HistogramsOf,
// and matching slots must actually be reused.
func TestHistogramsIntoReuse(t *testing.T) {
	frames := randomFrames(9, 24, 18, 12)
	want := HistogramsInto(nil, frames, 8, 1)

	// A dirty buffer: some nil, some wrong bins, some matching.
	buf := make([]*Histogram, 5)
	buf[0] = NewHistogram(8)
	buf[1] = NewHistogram(4) // wrong bins: must be replaced
	buf[3] = NewHistogram(8)
	keep0, keep3 := buf[0], buf[3]
	for _, workers := range []int{1, 4} {
		got := HistogramsInto(buf, frames, 8, workers)
		if len(got) != len(frames) {
			t.Fatalf("workers=%d: %d histograms, want %d", workers, len(got), len(frames))
		}
		for i := range got {
			if got[i].Total != want[i].Total {
				t.Fatalf("workers=%d frame %d: total %v != %v", workers, i, got[i].Total, want[i].Total)
			}
			for b := range got[i].Counts {
				if got[i].Counts[b] != want[i].Counts[b] {
					t.Fatalf("workers=%d frame %d bin %d differs", workers, i, b)
				}
			}
		}
		if got[0] != keep0 || got[3] != keep3 {
			t.Fatalf("workers=%d: matching buffers were not reused", workers)
		}
		if got[1] == nil || got[1].Bins != 8 {
			t.Fatalf("workers=%d: bin-mismatched buffer not replaced", workers)
		}
		buf = got
	}

	// Shrinking reuse: longer buffer than frames.
	short := HistogramsInto(buf, frames[:3], 8, 2)
	if len(short) != 3 {
		t.Fatalf("shrunk to %d, want 3", len(short))
	}
}

// TestHistogramsIntoAllocs: steady-state chunk reuse performs no per-frame
// histogram allocations on the sequential path.
func TestHistogramsIntoAllocs(t *testing.T) {
	frames := randomFrames(16, 24, 18, 5)
	buf := HistogramsInto(nil, frames, 8, 1) // warm
	allocs := testing.AllocsPerRun(50, func() {
		buf = HistogramsInto(buf, frames, 8, 1)
	})
	if allocs > 0.5 {
		t.Fatalf("reused HistogramsInto allocates %.1f objects per batch", allocs)
	}
}
