package frame

import "fmt"

// Source is a video's raw-data layer as the detectors read it: Len frames,
// visited in order by Scan. A detector that scans a range holds only what
// it copies, so a source backed by a decoder (vidfmt.Reader) never has more
// of the video in memory than its one decode state.
type Source interface {
	// Len returns the number of frames.
	Len() int
	// Scan calls fn on frames start..end-1 in order and stops at the first
	// error, which it returns. The image passed to fn is valid only during
	// that call: fn must not modify it, and must copy what it keeps.
	Scan(start, end int, fn func(i int, im *Image) error) error
}

// Frames adapts an in-memory frame slice to Source.
type Frames []*Image

// Len returns the number of frames.
func (f Frames) Len() int { return len(f) }

// Scan calls fn on f[start:end] in order.
func (f Frames) Scan(start, end int, fn func(i int, im *Image) error) error {
	if start < 0 || start > end || end > len(f) {
		return fmt.Errorf("frame: scan [%d, %d) of %d frames", start, end, len(f))
	}
	for i := start; i < end; i++ {
		if err := fn(i, f[i]); err != nil {
			return err
		}
	}
	return nil
}
