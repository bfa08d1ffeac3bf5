package vidfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/frame"
)

// The whole-frame decoder the package once shipped: expand the token stream
// into a frame-sized residual buffer, then undo the prediction. It is kept
// here only as the oracle the production decoder is checked against.

// undoSpatialDeltas reconstructs pixels from spatial residuals.
func undoSpatialDeltas(deltas []uint8, out []uint8) {
	copy(out[:min(3, len(deltas))], deltas)
	for i := 3; i < len(deltas); i++ {
		out[i] = deltas[i] + out[i-3]
	}
}

// decodeRuns expands a token stream into exactly want bytes.
func decodeRuns(src []byte, want int) ([]uint8, error) {
	out := make([]uint8, 0, want)
	i := 0
	for i < len(src) {
		tok := src[i]
		i++
		if tok&0x80 != 0 {
			run := int(tok&0x7F) + 1
			if len(out)+run > want {
				return nil, ErrCorrupt
			}
			out = out[:len(out)+run]
			for k := len(out) - run; k < len(out); k++ {
				out[k] = 0
			}
			continue
		}
		n := int(tok) + 1
		if i+n > len(src) || len(out)+n > want {
			return nil, ErrCorrupt
		}
		out = append(out, src[i:i+n]...)
		i += n
	}
	if len(out) != want {
		return nil, ErrCorrupt
	}
	return out, nil
}

// refDecodeFrame decodes one payload the old way on top of prev (the
// previous frame's pixels, unused for an I-frame) into fresh pixels.
func refDecodeFrame(typ uint8, payload []byte, prev []uint8) ([]uint8, error) {
	deltas, err := decodeRuns(payload, len(prev))
	if err != nil {
		return nil, err
	}
	out := make([]uint8, len(prev))
	if typ == frameTypeI {
		undoSpatialDeltas(deltas, out)
		return out, nil
	}
	for i, d := range deltas {
		out[i] = prev[i] + d
	}
	return out, nil
}

// refDecodeAll decodes a whole stream sequentially with refDecodeFrame. The
// container (header, index, trailer) is parsed by OpenReader: the oracle is
// for the frame codec.
func refDecodeAll(data []byte) ([][]uint8, error) {
	r, err := OpenReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	want := 3 * r.meta.Width * r.meta.Height
	if want > 1<<22 {
		return nil, errTooBig
	}
	prev := make([]uint8, want)
	havePrev := false
	var frames [][]uint8
	for j, e := range r.index {
		// A frame's record ends where the next one begins.
		off, end := int(e.offset), int(r.indexOff)
		if j+1 < len(r.index) {
			end = int(r.index[j+1].offset)
		}
		if data[off] != e.typ || e.typ > frameTypeP {
			return nil, ErrCorrupt
		}
		plen := int(binary.LittleEndian.Uint32(data[off+1:]))
		if off+5+plen > end {
			return nil, ErrCorrupt
		}
		if e.typ == frameTypeP && !havePrev {
			return nil, ErrCorrupt
		}
		pix, err := refDecodeFrame(e.typ, data[off+5:off+5+plen], prev)
		if err != nil {
			return nil, err
		}
		frames = append(frames, pix)
		prev, havePrev = pix, true
	}
	return frames, nil
}

var errTooBig = errors.New("oracle: frame too large to decode twice")

// checkScans scans four ranges of the stream data, drawn from a hash of it,
// through one Reader — so a range may roll forward from the previous one or
// restart at an I-frame — and holds each to DecodeAll's answer all (err its
// error): where DecodeAll decoded every frame, the same pixels; where it
// failed, ErrCorrupt or, for a range clear of the damage, the pixels a fresh
// reader gives decoding the range one frame at a time, last frame first.
func checkScans(t *testing.T, data []byte, all []*frame.Image, err error) {
	r, openErr := OpenReader(bytes.NewReader(data))
	if openErr != nil {
		return
	}
	seed := int64(len(data))
	for _, b := range data {
		seed = seed*31 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed))
	n := r.Len()
	for k := 0; k < 4; k++ {
		start := rng.Intn(n + 1)
		end := start + rng.Intn(n-start+1)
		var scanned [][]uint8
		scanErr := r.Scan(start, end, func(i int, im *frame.Image) error {
			if i != start+len(scanned) {
				t.Fatalf("Scan [%d, %d) handed out frame %d after %d frames", start, end, i, len(scanned))
			}
			scanned = append(scanned, slices.Clone(im.Pix))
			return nil
		})
		switch {
		case scanErr != nil && err == nil:
			t.Fatalf("Scan [%d, %d): %v, where DecodeAll decoded every frame", start, end, scanErr)
		case scanErr != nil && !errors.Is(scanErr, ErrCorrupt):
			t.Fatalf("Scan [%d, %d): %v, want ErrCorrupt", start, end, scanErr)
		case scanErr != nil:
			continue
		}
		want := make([][]uint8, 0, end-start)
		if err == nil {
			for _, im := range all[start:end] {
				want = append(want, im.Pix)
			}
		} else {
			fresh, _ := OpenReader(bytes.NewReader(data))
			want = want[:end-start]
			for i := end - 1; i >= start; i-- {
				if err := fresh.Scan(i, i+1, func(_ int, im *frame.Image) error {
					want[i-start] = slices.Clone(im.Pix)
					return nil
				}); err != nil {
					t.Fatalf("Scan [%d, %d) decoded, but frame %d alone: %v", start, end, i, err)
				}
			}
		}
		for j := range want {
			if !bytes.Equal(scanned[j], want[j]) {
				t.Fatalf("Scan [%d, %d): frame %d differs", start, end, start+j)
			}
		}
	}
}

// FuzzDecode checks the decoder against the oracle, never a panic and never
// a silent difference: on a whole stream (mode 0; the corpus seeds are valid
// files, which the fuzzer mutates) the same pixels or an error from both,
// and on a bare token stream applied as an I-frame (mode 1) or as a P-frame
// over a fixed predecessor (mode 2) likewise. On a whole stream it also
// scans ranges drawn from the input (see checkScans).
func FuzzDecode(f *testing.F) {
	for _, gop := range []int{1, 4} {
		data, err := EncodeAll(testFrames(4, 5, 3, 300+int64(gop)), 25, gop)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint8(0))
	}
	resid := []uint8{0, 0, 0, 9, 8, 7, 0, 1, 0, 0, 0, 0, 0, 200, 255, 1, 0, 0}
	f.Add(append([]byte{5}, encodeRuns(resid)...), uint8(1))
	f.Add(append([]byte{5}, encodeRuns(resid)...), uint8(2))
	f.Add([]byte{0, 0xFF}, uint8(1))
	f.Add([]byte{3, 0x05, 1, 2}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		if mode%3 == 0 {
			want, refErr := refDecodeAll(data)
			if refErr == errTooBig {
				return
			}
			got, _, err := decodeBoth(t, data)
			if (err != nil) != (refErr != nil) {
				t.Fatalf("DecodeAll error %v, oracle error %v", err, refErr)
			}
			for i := range want {
				if !bytes.Equal(got[i].Pix, want[i]) {
					t.Fatalf("frame %d differs from the oracle", i)
				}
			}
			checkScans(t, data, got, err)
			return
		}
		if len(data) == 0 {
			return
		}
		// The first byte sizes the frame: 1..64 pixels.
		prev := make([]uint8, 3*(1+int(data[0]%64)))
		for i := range prev {
			prev[i] = uint8(31*i + 7)
		}
		typ, tokens := uint8(frameTypeI), data[1:]
		if mode%3 == 2 {
			typ = frameTypeP
		}
		want, refErr := refDecodeFrame(typ, tokens, prev)
		got := append([]uint8(nil), prev...)
		var err error
		if typ == frameTypeI {
			err = decodeIntra(tokens, got)
		} else {
			err = decodeInter(tokens, got)
		}
		if (err != nil) != (refErr != nil) {
			t.Fatalf("decoder error %v, oracle error %v", err, refErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("type %d: pixels differ from the oracle", typ)
		}
	})
}

// TestDecodeMatchesOracle runs the oracle comparison over streams with
// every mix of run kinds: flat (zero runs), noise (literals), and motion.
func TestDecodeMatchesOracle(t *testing.T) {
	flat := make([]*frame.Image, 5)
	for i := range flat {
		flat[i] = frame.New(37, 5) // 3*37*5 is no multiple of 8 or 128
		flat[i].Fill(frame.RGB{R: 30, G: 120, B: uint8(50 + i/3)})
	}
	for name, frames := range map[string][]*frame.Image{
		"motion": testFrames(30, 48, 32, 11),
		"odd":    testFrames(9, 7, 3, 12),
		"flat":   flat,
	} {
		for _, gop := range []int{1, 4, 12} {
			data, err := EncodeAll(frames, 25, gop)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refDecodeAll(data)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := DecodeAll(data)
			if err != nil {
				t.Fatal(err)
			}
			for i := range frames {
				if !bytes.Equal(got[i].Pix, want[i]) || !slices.Equal(got[i].Pix, frames[i].Pix) {
					t.Fatalf("%s gop=%d: frame %d differs", name, gop, i)
				}
			}
		}
	}
}

// TestDecodeAllocations locks the decoder's allocation profile: one pixel
// buffer per decoded frame, plus a constant for the source, the reader, its
// index, record buffer and state, and the slab of image headers. ReadFile
// is also held to a byte bound: the frames and the decode state, one frame
// record, 128 bytes per index entry and 4 KB for the file handle — never
// the file itself beside the frames it decodes.
func TestDecodeAllocations(t *testing.T) {
	const constant = 9
	for _, n := range []int{12, 48} {
		// 3·64·32 bytes is one of the allocator's size classes, so a frame
		// costs exactly its pixels.
		data, err := EncodeAll(testFrames(n, 64, 32, 13), 25, 12)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := DecodeAll(data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > float64(n+constant) {
			t.Errorf("DecodeAll of %d frames: %.0f allocations, want <= %d", n, allocs, n+constant)
		}

		path := filepath.Join(t.TempDir(), "v.svf")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		pix := uint64(3 * 64 * 32)
		bound := uint64(n+1)*pix + r.maxRec + 128*uint64(n) + 4096
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, _, err := ReadFile(path)
		runtime.ReadMemStats(&after)
		if err != nil || len(got) != n {
			t.Fatalf("ReadFile: %d frames, %v", len(got), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
			t.Errorf("ReadFile of %d frames (%d-byte file): %d bytes allocated, want <= %d", n, len(data), grew, bound)
		}
	}
}
