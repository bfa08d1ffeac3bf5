package vidfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/frame"
)

// Robustness tests: corrupted and adversarial streams must produce errors,
// never panics or silent wrong frames.

// decodeBoth decodes data twice, with DecodeAll and with ReadFile from a
// file holding it: the two sources must fail together or decode the same
// frames. It returns DecodeAll's answer.
func decodeBoth(t *testing.T, data []byte) ([]*frame.Image, Meta, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "v.svf")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, meta, err := DecodeAll(data)
	fromFile, fileMeta, fileErr := ReadFile(path)
	if (err != nil) != (fileErr != nil) {
		t.Fatalf("DecodeAll error %v, ReadFile error %v", err, fileErr)
	}
	if err == nil {
		if meta != fileMeta || len(got) != len(fromFile) {
			t.Fatalf("DecodeAll %+v (%d frames), ReadFile %+v (%d frames)", meta, len(got), fileMeta, len(fromFile))
		}
		for i := range got {
			if !slices.Equal(got[i].Pix, fromFile[i].Pix) {
				t.Fatalf("frame %d: DecodeAll and ReadFile differ", i)
			}
		}
	}
	return got, meta, err
}

func TestGOPOneAllIntra(t *testing.T) {
	frames := testFrames(10, 16, 16, 100)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 16, 16, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range r.index {
		if e.typ != frameTypeI {
			t.Fatalf("frame %d not intra with GOP=1", i)
		}
	}
	// Random access to any frame is a single-frame decode.
	for _, i := range []int{9, 0, 5} {
		im, err := frameAt(r, i)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(im.Pix, frames[i].Pix) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

func TestSingleFrameVideo(t *testing.T) {
	im := frame.New(8, 8)
	im.Fill(frame.RGB{R: 1, G: 2, B: 3})
	data, err := EncodeAll([]*frame.Image{im}, 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, meta, err := DecodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Frames != 1 || !slices.Equal(got[0].Pix, im.Pix) {
		t.Fatal("single-frame round trip failed")
	}
}

// Property: flipping any single byte of a valid stream either errors or
// still yields frames of the right dimensions — never a panic.
func TestByteFlipNeverPanics(t *testing.T) {
	frames := testFrames(8, 12, 10, 101)
	data, err := EncodeAll(frames, 25, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pos uint16, flip byte) bool {
		if flip == 0 {
			flip = 0xFF
		}
		corrupted := append([]byte(nil), data...)
		corrupted[int(pos)%len(corrupted)] ^= flip
		defer func() {
			if recover() != nil {
				t.Errorf("panic on byte flip at %d", int(pos)%len(data))
			}
		}()
		got, meta, err := decodeBoth(t, corrupted)
		if err != nil {
			return true // detected corruption
		}
		// Undetected (e.g. pixel payload flipped): structure must hold.
		for _, im := range got {
			if im.W != meta.Width || im.H != meta.Height {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: random byte blobs never panic the reader.
func TestRandomGarbageNeverPanics(t *testing.T) {
	f := func(blob []byte) bool {
		defer func() {
			if recover() != nil {
				t.Error("panic on garbage input")
			}
		}()
		_, _, _ = DecodeAll(blob)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedStream(t *testing.T) {
	frames := testFrames(6, 16, 16, 102)
	data, _ := EncodeAll(frames, 25, 3)
	for _, cut := range []int{1, 10, 19, len(data) / 2, len(data) - 1} {
		if _, _, err := decodeBoth(t, data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestHighEntropyFramesStillRoundTrip(t *testing.T) {
	// Worst case for the run-length coder: pure noise (no runs at all).
	rng := rand.New(rand.NewSource(103))
	frames := make([]*frame.Image, 5)
	for i := range frames {
		im := frame.New(32, 32)
		im.SpeckleNoise(rng, 1)
		frames[i] = im
	}
	data, err := EncodeAll(frames, 25, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		if !slices.Equal(got[i].Pix, frames[i].Pix) {
			t.Fatalf("noise frame %d corrupted", i)
		}
	}
	// Expansion is bounded: literal tokens add ~1/128 overhead, plus
	// per-frame and container headers.
	raw := 5 * 3 * 32 * 32
	if len(data) > raw+raw/32+256 {
		t.Fatalf("noise expanded to %d bytes (raw %d)", len(data), raw)
	}
}

// craftSVF assembles a container by hand: header, the given frame records,
// an index with the given declared count and entries, trailer.
func craftSVF(w, h uint32, frames []byte, count uint32, entries []indexEntry) []byte {
	out := []byte(magicHeader)
	for _, v := range []uint32{w, h, 25, 12} {
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	out = append(out, frames...)
	indexOff := uint64(len(out))
	out = binary.LittleEndian.AppendUint32(out, count)
	for _, e := range entries {
		out = binary.LittleEndian.AppendUint64(out, e.offset)
		out = append(out, e.typ)
	}
	out = binary.LittleEndian.AppendUint64(out, indexOff)
	return append(out, magicTrail...)
}

// Sizes a header or an index declares must be checked against what the file
// can hold before anything is allocated for them: each of these files is a
// few dozen bytes and used to cost gigabytes before failing.
func TestDeclaredSizesAreBoundedByTheFile(t *testing.T) {
	oneFrame := []byte{frameTypeI, 1, 0, 0, 0, 0xFF} // a 128-byte zero run
	cases := map[string][]byte{
		// 65,536 x 65,536 pixels behind a one-byte payload.
		"huge frame": craftSVF(1<<16, 1<<16, oneFrame, 1, []indexEntry{{offset: 20}}),
		// 2^28 index entries declared, none present.
		"huge index": craftSVF(8, 8, oneFrame, 1<<28, nil),
		// An entry pointing past the index, and one pointing backwards.
		"offset outside":   craftSVF(8, 8, oneFrame, 1, []indexEntry{{offset: 1 << 40}}),
		"offset in header": craftSVF(8, 8, oneFrame, 1, []indexEntry{{offset: 4}}),
		"offsets descending": craftSVF(8, 8, append(oneFrame, oneFrame...), 2,
			[]indexEntry{{offset: 26}, {offset: 20}}),
		// A payload length reaching into the index.
		"payload past frames": craftSVF(8, 8, []byte{frameTypeI, 200, 0, 0, 0, 0xFF}, 1, []indexEntry{{offset: 20}}),
		// An index offset beyond the file.
		"index outside": append(craftSVF(8, 8, oneFrame, 0, nil)[:26],
			append(binary.LittleEndian.AppendUint64(nil, 1<<50), magicTrail...)...),
	}
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeAll(data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v, want ErrCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: %d bytes allocated for a %d-byte file", name, grew, len(data))
		}
	}
	// The same frame record in a well-formed container still decodes.
	ok := craftSVF(8, 2, []byte{frameTypeI, 1, 0, 0, 0, 0xAF}, 1, []indexEntry{{offset: 20}})
	if frames, _, err := DecodeAll(ok); err != nil || len(frames) != 1 {
		t.Fatalf("well-formed crafted file: %v", err)
	}
}

// countingSource counts the payload reads a Reader makes of its source.
type countingSource struct {
	io.ReadSeeker
	reads int
}

func (c *countingSource) Read(p []byte) (int, error) {
	c.reads++
	return c.ReadSeeker.Read(p)
}

// Sequential access decodes every frame once — one read of the source a
// frame — instead of restarting at the I-frame for each P-frame, and
// asking for the frame the state already holds decodes nothing.
func TestSequentialAccessDecodesEachFrameOnce(t *testing.T) {
	frames := testFrames(25, 16, 12, 105)
	data, err := EncodeAll(frames, 25, 12)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{ReadSeeker: bytes.NewReader(data)}
	r, err := OpenReader(src)
	if err != nil {
		t.Fatal(err)
	}
	src.reads = 0
	for i := range frames {
		im, err := frameAt(r, i)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(im.Pix, frames[i].Pix) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if im, err := frameAt(r, len(frames)-1); err != nil || !slices.Equal(im.Pix, frames[len(frames)-1].Pix) {
		t.Fatalf("re-reading the last frame: %v", err)
	}
	if want := len(frames); src.reads != want {
		t.Fatalf("%d reads of the source for %d sequential frames, want %d", src.reads, len(frames), want)
	}
}
