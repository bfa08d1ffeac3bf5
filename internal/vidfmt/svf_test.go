package vidfmt

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/frame"
)

// testFrames builds a deterministic sequence with gradual motion plus one
// hard cut, exercising both I- and P-frame coding.
// frameAt decodes frame i alone through Frames.
func frameAt(r *Reader, i int) (*frame.Image, error) {
	fs, err := r.Frames(i, i+1)
	if err != nil {
		return nil, err
	}
	return fs[0], nil
}

func testFrames(n, w, h int, seed int64) []*frame.Image {
	rng := rand.New(rand.NewSource(seed))
	frames := make([]*frame.Image, n)
	for i := range frames {
		im := frame.New(w, h)
		if i < n/2 {
			im.Fill(frame.RGB{R: 30, G: 120, B: 50})
			im.FillEllipse(float64(5+i), float64(h/2), 3, 5, frame.RGB{R: 220, G: 40, B: 40})
		} else {
			im.Fill(frame.RGB{R: 90, G: 90, B: 160})
			im.FillRect(frame.Rect{X0: i % w, Y0: 2, X1: i%w + 4, Y1: 8}, frame.RGB{R: 250, G: 250, B: 20})
		}
		im.AddNoise(rng, 3)
		frames[i] = im
	}
	return frames
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	frames := testFrames(30, 48, 32, 1)
	data, err := EncodeAll(frames, 25, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, meta, err := DecodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Frames != 30 || meta.Width != 48 || meta.Height != 32 || meta.FPS != 25 || meta.GOP != 8 {
		t.Fatalf("meta = %+v", meta)
	}
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !slices.Equal(frames[i].Pix, got[i].Pix) {
			t.Fatalf("frame %d does not round-trip losslessly", i)
		}
	}
}

func TestRandomAccessMatchesSequential(t *testing.T) {
	frames := testFrames(40, 32, 24, 2)
	data, err := EncodeAll(frames, 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Access in scrambled order, including repeats and backward seeks.
	order := []int{39, 0, 17, 17, 5, 38, 11, 1, 25, 12, 39, 0}
	for _, i := range order {
		im, err := frameAt(r, i)
		if err != nil {
			t.Fatalf("Frame(%d): %v", i, err)
		}
		if !slices.Equal(im.Pix, frames[i].Pix) {
			t.Fatalf("random access frame %d mismatch", i)
		}
		im.Fill(frame.RGB{}) // a returned frame is the caller's: scribbling on it must not disturb the reader
	}
}

func TestFrameOutOfRange(t *testing.T) {
	frames := testFrames(5, 16, 16, 3)
	data, _ := EncodeAll(frames, 25, 4)
	r, err := OpenReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := frameAt(r, -1); err == nil {
		t.Fatal("Frame(-1) did not error")
	}
	if _, err := frameAt(r, 5); err == nil {
		t.Fatal("Frame(N) did not error")
	}
}

func TestWriterRejectsMismatchedFrame(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 16, 16, 25, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(frame.New(8, 8)); err == nil {
		t.Fatal("mismatched frame accepted")
	}
}

func TestWriterCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 8, 8, 25, 4)
	_ = w.WriteFrame(frame.New(8, 8))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != ErrClosed {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	if err := w.WriteFrame(frame.New(8, 8)); err != ErrClosed {
		t.Fatalf("WriteFrame after Close = %v, want ErrClosed", err)
	}
}

func TestOpenReaderRejectsGarbage(t *testing.T) {
	if _, err := OpenReader(bytes.NewReader([]byte("not a video at all, definitely"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid header, corrupted trailer.
	frames := testFrames(3, 8, 8, 5)
	data, _ := EncodeAll(frames, 25, 4)
	data[len(data)-1] ^= 0xFF
	if _, err := OpenReader(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted trailer accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "clip.svf")
	frames := testFrames(12, 24, 18, 6)
	if err := WriteFile(path, frames, 30, 6); err != nil {
		t.Fatal(err)
	}
	got, meta, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.FPS != 30 || meta.Frames != 12 {
		t.Fatalf("meta = %+v", meta)
	}
	for i := range frames {
		if !slices.Equal(frames[i].Pix, got[i].Pix) {
			t.Fatalf("file frame %d mismatch", i)
		}
	}
}

func TestWriteFileEmpty(t *testing.T) {
	if err := WriteFile(filepath.Join(t.TempDir(), "x.svf"), nil, 25, 4); err == nil {
		t.Fatal("empty WriteFile did not error")
	}
}

// Property: run-length coding round-trips arbitrary residual streams.
func TestRunCodingRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		// A P-frame over an all-zero predecessor decodes to its residuals.
		dec := make([]uint8, len(data))
		err := decodeInter(encodeRuns(data), dec)
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: spatial prediction round-trips arbitrary pixel buffers.
func TestSpatialDeltaRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		out := make([]uint8, len(data))
		err := decodeIntra(encodeRuns(spatialDeltas(data)), out)
		return err == nil && bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsOverflow(t *testing.T) {
	for name, decode := range map[string]func([]byte, []uint8) error{"intra": decodeIntra, "inter": decodeInter} {
		// A zero-run longer than the expected output.
		if err := decode([]byte{0xFF}, make([]uint8, 10)); err == nil {
			t.Errorf("%s: overlong run accepted", name)
		}
		// Literal token promising more bytes than present.
		if err := decode([]byte{0x05, 1, 2}, make([]uint8, 10)); err == nil {
			t.Errorf("%s: truncated literal accepted", name)
		}
		// Underflow: stream ends before want bytes are produced.
		if err := decode([]byte{0x81}, make([]uint8, 10)); err == nil {
			t.Errorf("%s: short stream accepted", name)
		}
	}
}

func TestCompressionBeatsRawOnFlatVideo(t *testing.T) {
	frames := make([]*frame.Image, 20)
	for i := range frames {
		im := frame.New(64, 64)
		im.Fill(frame.RGB{R: 30, G: 120, B: 50})
		frames[i] = im
	}
	data, err := EncodeAll(frames, 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	raw := 20 * 3 * 64 * 64
	if len(data) >= raw/10 {
		t.Fatalf("flat video compressed to %d bytes, want < %d", len(data), raw/10)
	}
}

func TestGOPPlacement(t *testing.T) {
	frames := testFrames(10, 16, 16, 7)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 16, 16, 25, 4)
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	_ = w.Close()
	r, err := OpenReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range r.index {
		wantI := i%4 == 0
		if (e.typ == frameTypeI) != wantI {
			t.Fatalf("frame %d type = %d, want I=%v", i, e.typ, wantI)
		}
	}
}
