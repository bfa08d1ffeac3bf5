package frame

import (
	"math/rand"
	"testing"
)

func randomFrames(n, w, h int, seed int64) []*Image {
	rng := rand.New(rand.NewSource(seed))
	frames := make([]*Image, n)
	for i := range frames {
		im := New(w, h)
		rng.Read(im.Pix)
		frames[i] = im
	}
	return frames
}

func TestHistogramsOfMatchesSequential(t *testing.T) {
	frames := randomFrames(23, 40, 30, 17)
	want := make([]*Histogram, len(frames))
	for i, im := range frames {
		want[i] = HistogramOf(im, 8)
	}
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got := HistogramsInto(nil, frames, 8, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d histograms", workers, len(got))
		}
		for i := range got {
			if got[i].Total != want[i].Total {
				t.Fatalf("workers=%d frame %d: total %v != %v", workers, i, got[i].Total, want[i].Total)
			}
			for b, c := range got[i].Counts {
				if c != want[i].Counts[b] {
					t.Fatalf("workers=%d frame %d bin %d: %v != %v", workers, i, b, c, want[i].Counts[b])
				}
			}
		}
	}
}

func TestHistogramsOfEmpty(t *testing.T) {
	if got := HistogramsInto(nil, nil, 8, 4); len(got) != 0 {
		t.Fatalf("empty input yielded %d histograms", len(got))
	}
}
