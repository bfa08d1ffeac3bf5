// Package vidfmt implements SVF, the Simple Video Format: a seekable video
// container with a lossless intra/inter frame codec, built from scratch on
// the standard library.
//
// The original system decoded MPEG video of tennis matches; no video decode
// tooling is available in this reproduction, so SVF plays the role of the
// raw-data layer of the COBRA model. The codec is deliberately simple but
// real: I-frames use spatial (left-neighbour) prediction, P-frames use
// temporal prediction from the previous frame, and residuals are compressed
// with a byte-oriented zero-run/literal scheme. Decoding is exact
// (lossless), and the container carries a frame index so detectors can seek
// to arbitrary frames, as the Feature Detector Engine requires when
// re-running a single detector over selected shots.
//
// # Layout
//
// All integers are little-endian.
//
//	header:  magic "SVF1" | u32 width | u32 height | u32 fps | u32 gop
//	frames:  repeated { u8 type (0=I, 1=P) | u32 len | payload }
//	index:   u32 count | count × { u64 offset | u8 type }
//	trailer: u64 index offset | magic "SVFX"
package vidfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/frame"
)

// Format constants.
const (
	magicHeader = "SVF1"
	magicTrail  = "SVFX"
	// DefaultGOP is the default group-of-pictures length: every
	// DefaultGOP-th frame is encoded as an I-frame.
	DefaultGOP = 12

	frameTypeI = 0
	frameTypeP = 1

	noPos = ^uint64(0) // Reader.pos when the stream offset is unknown

	// skipRun is the shortest zero run decodeInter steps over instead of
	// adding: shorter ones cost less inside a chunk than as a stretch's end.
	skipRun = 32
)

// Errors returned by the package.
var (
	ErrBadMagic   = errors.New("vidfmt: not an SVF stream")
	ErrCorrupt    = errors.New("vidfmt: corrupt stream")
	ErrFrameRange = errors.New("vidfmt: frame index out of range")
	ErrClosed     = errors.New("vidfmt: writer already closed")
)

// Meta describes a video stream.
type Meta struct {
	// Width and Height are the frame dimensions in pixels.
	Width, Height int
	// FPS is the nominal frame rate (frames per second).
	FPS int
	// GOP is the group-of-pictures length (distance between I-frames).
	GOP int
	// Frames is the total number of frames (known after writing/opening).
	Frames int
}

// Writer encodes frames into an SVF stream. Frames must all share the
// dimensions given at construction. Close must be called to emit the index
// and trailer.
type Writer struct {
	w      *countingWriter
	meta   Meta
	prev   []uint8 // previous frame pixels for P-frame prediction
	index  []indexEntry
	closed bool
}

type indexEntry struct {
	offset uint64
	typ    uint8
}

type countingWriter struct {
	w io.Writer
	n uint64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += uint64(n)
	return n, err
}

// NewWriter creates an SVF writer emitting to w. gop <= 0 selects
// DefaultGOP.
func NewWriter(w io.Writer, width, height, fps, gop int) (*Writer, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("vidfmt: invalid dimensions %dx%d", width, height)
	}
	if fps <= 0 {
		fps = 25
	}
	if gop <= 0 {
		gop = DefaultGOP
	}
	cw := &countingWriter{w: w}
	hdr := make([]byte, 0, 20)
	hdr = append(hdr, magicHeader...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(width))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(height))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(fps))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(gop))
	if _, err := cw.Write(hdr); err != nil {
		return nil, fmt.Errorf("vidfmt: writing header: %w", err)
	}
	return &Writer{
		w:    cw,
		meta: Meta{Width: width, Height: height, FPS: fps, GOP: gop},
	}, nil
}

// WriteFrame appends one frame. The image dimensions must match the stream.
func (w *Writer) WriteFrame(im *frame.Image) error {
	if w.closed {
		return ErrClosed
	}
	if im.W != w.meta.Width || im.H != w.meta.Height {
		return fmt.Errorf("vidfmt: frame size %dx%d does not match stream %dx%d",
			im.W, im.H, w.meta.Width, w.meta.Height)
	}
	typ := uint8(frameTypeI)
	if w.prev != nil && w.meta.Frames%w.meta.GOP != 0 {
		typ = frameTypeP
	}
	var payload []byte
	if typ == frameTypeI {
		payload = encodeRuns(spatialDeltas(im.Pix))
	} else {
		payload = encodeRuns(temporalDeltas(im.Pix, w.prev))
	}
	w.index = append(w.index, indexEntry{offset: w.w.n, typ: typ})
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("vidfmt: writing frame header: %w", err)
	}
	if _, err := w.w.Write(payload); err != nil {
		return fmt.Errorf("vidfmt: writing frame payload: %w", err)
	}
	if w.prev == nil {
		w.prev = make([]uint8, len(im.Pix))
	}
	copy(w.prev, im.Pix)
	w.meta.Frames++
	return nil
}

// Close writes the frame index and trailer. The Writer is unusable after.
func (w *Writer) Close() error {
	if w.closed {
		return ErrClosed
	}
	w.closed = true
	indexOff := w.w.n
	buf := make([]byte, 0, 4+9*len(w.index)+12)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.index)))
	for _, e := range w.index {
		buf = binary.LittleEndian.AppendUint64(buf, e.offset)
		buf = append(buf, e.typ)
	}
	buf = binary.LittleEndian.AppendUint64(buf, indexOff)
	buf = append(buf, magicTrail...)
	if _, err := w.w.Write(buf); err != nil {
		return fmt.Errorf("vidfmt: writing index: %w", err)
	}
	return nil
}

// Reader decodes an SVF stream with random access by frame number. It is a
// frame.Source: Scan decodes each frame in place into the reader's one
// decode state and hands that to the caller, so reading a video allocates
// nothing per frame. A Reader is not safe for concurrent use.
type Reader struct {
	r io.ReadSeeker
	// name, when set, prefixes every decode error (Open sets the path).
	name string
	// buf holds one frame record read through r. It is sized once, to the
	// largest record the index declares, and reused from frame to frame, so
	// a decode holds one record of the stream, never the whole of it.
	buf    []byte
	maxRec uint64
	// pos is r's offset after the last record read (noPos: unknown), so
	// reading the next record in order needs no seek.
	pos      uint64
	meta     Meta
	index    []indexEntry
	indexOff uint64
	// state holds the pixels of frame decodedIdx (-1: none). Frames decode
	// in place on top of it; img is the header Scan hands out over it.
	state      []uint8
	decodedIdx int
	img        frame.Image
}

// OpenReader parses the header and index of an SVF stream. Every size the
// stream declares is checked against the stream's own length before
// anything is allocated for it.
func OpenReader(r io.ReadSeeker) (*Reader, error) {
	size, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("vidfmt: seek: %w", err)
	}
	var scratch [20]byte // header, then trailer, then index count
	hdr := scratch[:]
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("vidfmt: seek: %w", err)
	}
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("vidfmt: reading header: %w", err)
	}
	if string(hdr[:4]) != magicHeader {
		return nil, ErrBadMagic
	}
	meta := Meta{
		Width:  int(binary.LittleEndian.Uint32(hdr[4:])),
		Height: int(binary.LittleEndian.Uint32(hdr[8:])),
		FPS:    int(binary.LittleEndian.Uint32(hdr[12:])),
		GOP:    int(binary.LittleEndian.Uint32(hdr[16:])),
	}
	if meta.Width <= 0 || meta.Height <= 0 || meta.Width > 1<<16 || meta.Height > 1<<16 {
		return nil, ErrCorrupt
	}
	// Trailer.
	if _, err := r.Seek(-12, io.SeekEnd); err != nil {
		return nil, fmt.Errorf("vidfmt: seeking trailer: %w", err)
	}
	trail := scratch[:12]
	if _, err := io.ReadFull(r, trail); err != nil {
		return nil, fmt.Errorf("vidfmt: reading trailer: %w", err)
	}
	if string(trail[8:]) != magicTrail {
		return nil, ErrBadMagic
	}
	indexOff := binary.LittleEndian.Uint64(trail[:8])
	if indexOff < uint64(len(hdr)) || indexOff > uint64(size)-16 {
		return nil, ErrCorrupt
	}
	if _, err := r.Seek(int64(indexOff), io.SeekStart); err != nil {
		return nil, fmt.Errorf("vidfmt: seeking index: %w", err)
	}
	cnt := scratch[:4]
	if _, err := io.ReadFull(r, cnt); err != nil {
		return nil, fmt.Errorf("vidfmt: reading index count: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(cnt))
	if uint64(n) > (uint64(size)-indexOff-16)/9 {
		return nil, ErrCorrupt
	}
	raw := make([]byte, 9*n)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, fmt.Errorf("vidfmt: reading index: %w", err)
	}
	index := make([]indexEntry, n)
	end := uint64(len(hdr)) // frames start after the header, in ascending order
	var maxRec uint64
	for i := range index {
		e := indexEntry{offset: binary.LittleEndian.Uint64(raw[9*i:]), typ: raw[9*i+8]}
		if e.offset < end || e.offset > indexOff-5 {
			return nil, ErrCorrupt
		}
		if i > 0 {
			maxRec = max(maxRec, e.offset-index[i-1].offset)
		}
		end = e.offset + 5
		index[i] = e
	}
	if n > 0 {
		maxRec = max(maxRec, indexOff-index[n-1].offset)
	}
	meta.Frames = n
	return &Reader{r: r, meta: meta, index: index, indexOff: indexOff, maxRec: maxRec, pos: noPos, decodedIdx: -1}, nil
}

// Meta returns the stream's parameters.
func (r *Reader) Meta() Meta { return r.meta }

// Len returns the number of frames.
func (r *Reader) Len() int { return len(r.index) }

// Scan decodes frames [start, end) in order, calling fn with each. The
// image fn receives is the reader's decode state: valid only during the
// call, and fn must not modify it. Decoding starts at the I-frame that
// governs start, or rolls forward from the frame the state already holds
// when that is less than a GOP back, so a range costs its own frames plus
// at most GOP-1 before it.
func (r *Reader) Scan(start, end int, fn func(i int, im *frame.Image) error) error {
	if start < 0 || start > end || end > len(r.index) {
		return fmt.Errorf("%w: [%d, %d) of %d", ErrFrameRange, start, end, len(r.index))
	}
	for i := start; i < end; i++ {
		if err := r.seek(i); err != nil {
			if r.name != "" {
				err = fmt.Errorf("vidfmt: %s: %w", r.name, err)
			}
			return err
		}
		r.img = frame.Image{W: r.meta.Width, H: r.meta.Height, Pix: r.state}
		if err := fn(i, &r.img); err != nil {
			return err
		}
	}
	return nil
}

// seek brings the decode state to frame i. It rolls forward when the state
// holds frame i itself or a frame less than a GOP before it (further back,
// an I-frame is the cheaper restart point); otherwise it restarts at the
// I-frame that governs i.
func (r *Reader) seek(i int) error {
	start := r.decodedIdx + 1
	if r.decodedIdx < 0 || r.decodedIdx > i || i-r.decodedIdx >= r.meta.GOP {
		for start = i; start > 0 && r.index[start].typ != frameTypeI; start-- {
		}
	}
	for j := start; j <= i; j++ {
		if err := r.decode(j); err != nil {
			return err
		}
	}
	return nil
}

// Frames decodes frames [start, end) into memory: one pixel buffer per
// frame, and one allocation for all the image headers.
func (r *Reader) Frames(start, end int) ([]*frame.Image, error) {
	if start < 0 || start > end || end > len(r.index) {
		return nil, fmt.Errorf("%w: [%d, %d) of %d", ErrFrameRange, start, end, len(r.index))
	}
	imgs := make([]frame.Image, end-start)
	frames := make([]*frame.Image, end-start)
	err := r.Scan(start, end, func(i int, im *frame.Image) error {
		k := i - start
		imgs[k] = frame.Image{W: im.W, H: im.H, Pix: append([]uint8(nil), im.Pix...)}
		frames[k] = &imgs[k]
		return nil
	})
	if err != nil {
		return nil, err
	}
	return frames, nil
}

// payload returns the token stream of frame j. The frame's record runs to
// the next frame's offset (the index is ascending) and is read in one call
// into the reader's reused buffer. A payload too short to expand to a whole
// frame (one token byte yields at most 128 pixel bytes) is rejected here,
// before a frame is allocated.
func (r *Reader) payload(j int) ([]byte, error) {
	e, end := r.index[j], r.indexOff
	if j+1 < len(r.index) {
		end = r.index[j+1].offset
	}
	if r.buf == nil {
		r.buf = make([]byte, r.maxRec)
	}
	rec := r.buf[:end-e.offset]
	if r.pos != e.offset {
		if _, err := r.r.Seek(int64(e.offset), io.SeekStart); err != nil {
			r.pos = noPos
			return nil, fmt.Errorf("vidfmt: seek frame %d: %w", j, err)
		}
	}
	if _, err := io.ReadFull(r.r, rec); err != nil {
		r.pos = noPos
		return nil, fmt.Errorf("vidfmt: reading frame %d: %w", j, err)
	}
	r.pos = end
	plen := uint64(binary.LittleEndian.Uint32(rec[1:]))
	if rec[0] != e.typ || plen > uint64(len(rec))-5 || uint64(3*r.meta.Width*r.meta.Height) > 128*plen {
		return nil, ErrCorrupt
	}
	return rec[5 : 5+plen], nil
}

// decode advances the decode state to frame j, which must be an I-frame or
// the successor of the frame the state holds. The token stream (see
// encodeRuns) is walked once and applied to the state in place: an I-frame
// undoes the left-neighbour prediction as it expands, a P-frame adds its
// literal runs onto the predecessor and steps over the zero runs. A stream
// that does not expand to exactly one frame leaves the state undefined.
func (r *Reader) decode(j int) error {
	src, err := r.payload(j)
	if err != nil {
		return err
	}
	if r.state == nil {
		r.state = make([]uint8, 3*r.meta.Width*r.meta.Height)
	}
	switch r.index[j].typ {
	case frameTypeI:
		err = decodeIntra(src, r.state)
	case frameTypeP:
		if j == 0 || r.decodedIdx != j-1 {
			return fmt.Errorf("%w: P-frame %d without predecessor", ErrCorrupt, j)
		}
		err = decodeInter(src, r.state)
	default:
		err = ErrCorrupt
	}
	if err != nil {
		r.decodedIdx = -1
		return fmt.Errorf("vidfmt: frame %d: %w", j, err)
	}
	r.decodedIdx = j
	return nil
}

// expand expands a token stream (see encodeRuns) into out: a literal run is
// one copy, a zero run one clear. A stream that does not expand to exactly
// len(out) bytes is corrupt.
func expand(src []byte, out []uint8) error {
	o := 0
	for i := 0; i < len(src); {
		tok := src[i]
		i++
		n := int(tok&0x7F) + 1
		if n > len(out)-o {
			return ErrCorrupt
		}
		if tok&0x80 != 0 {
			clear(out[o : o+n])
		} else if n > len(src)-i {
			return ErrCorrupt
		} else {
			i += copy(out[o:o+n], src[i:])
		}
		o += n
	}
	if o != len(out) {
		return ErrCorrupt
	}
	return nil
}

// decodeIntra expands an I-frame token stream into out, then undoes the
// left-neighbour prediction: every byte is its residual plus the same
// channel of the pixel to its left (the first pixel predicts from zero),
// one running sum per channel.
func decodeIntra(src []byte, out []uint8) error {
	if err := expand(src, out); err != nil || len(out) < 3 {
		return err
	}
	r, g, b := out[0], out[1], out[2]
	k := 3
	for ; k+3 <= len(out); k += 3 {
		p := out[k : k+3 : k+3]
		r, g, b = r+p[0], g+p[1], b+p[2]
		p[0], p[1], p[2] = r, g, b
	}
	for ; k < len(out); k++ {
		out[k] += out[k-3]
	}
	return nil
}

// decodeInter applies a P-frame token stream to out, which holds the
// previous frame, in two steps per stretch of the frame: the tokens expand
// into a residual chunk on the stack (a literal run is one copy, a short zero
// run one clear), which is then added onto out byte-wise (mod 256), so the
// per-token work is a copy whatever the run lengths and the adding runs
// over whole chunks; a zero run of skipRun bytes or more ends the stretch
// and is stepped over. A stream that does not expand to exactly one frame
// leaves out undefined.
func decodeInter(src []byte, out []uint8) error {
	var chunk [4096]uint8
	o, k := 0, 0 // out[o:] is where chunk[:k] goes
	for i := 0; i < len(src); {
		tok := src[i]
		i++
		n := int(tok&0x7F) + 1
		lit := tok&0x80 == 0
		if n > len(out)-o-k || lit && n > len(src)-i {
			return ErrCorrupt
		}
		if !lit && n >= skipRun {
			// The pixels already have their value: add what the chunk
			// holds and step over the run.
			addBytes(out[o:o+k], chunk[:k])
			o, k = o+k+n, 0
			continue
		}
		for n > 0 {
			m := min(n, len(chunk)-k)
			if lit {
				i += copy(chunk[k:k+m], src[i:])
			} else {
				clear(chunk[k : k+m])
			}
			k, n = k+m, n-m
			if k == len(chunk) {
				addBytes(out[o:o+k], chunk[:k])
				o, k = o+k, 0
			}
		}
	}
	if o+k != len(out) {
		return ErrCorrupt
	}
	addBytes(out[o:], chunk[:k])
	return nil
}

// addBytes adds src onto dst byte-wise (mod 256), 32 bytes a step. Eight
// byte-wise sums fit in one word: add the low seven bits of every byte (no
// carry can leave a byte), then the top bits.
func addBytes(dst, src []uint8) {
	const lo7 = 0x7f7f7f7f7f7f7f7f
	le := binary.LittleEndian
	src = src[:len(dst)]
	for len(dst) >= 32 {
		d, s := dst[:32:32], src[:32:32]
		a0, b0 := le.Uint64(d[0:]), le.Uint64(s[0:])
		a1, b1 := le.Uint64(d[8:]), le.Uint64(s[8:])
		a2, b2 := le.Uint64(d[16:]), le.Uint64(s[16:])
		a3, b3 := le.Uint64(d[24:]), le.Uint64(s[24:])
		le.PutUint64(d[0:], ((a0&lo7)+(b0&lo7))^((a0^b0)&^lo7))
		le.PutUint64(d[8:], ((a1&lo7)+(b1&lo7))^((a1^b1)&^lo7))
		le.PutUint64(d[16:], ((a2&lo7)+(b2&lo7))^((a2^b2)&^lo7))
		le.PutUint64(d[24:], ((a3&lo7)+(b3&lo7))^((a3^b3)&^lo7))
		dst, src = dst[32:], src[32:]
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// spatialDeltas computes left-neighbour prediction residuals (per channel,
// mod 256) for I-frames.
func spatialDeltas(pix []uint8) []uint8 {
	dst := make([]uint8, len(pix))
	copy(dst[:min(3, len(pix))], pix)
	for i := 3; i < len(pix); i++ {
		dst[i] = pix[i] - pix[i-3]
	}
	return dst
}

// temporalDeltas computes residuals against the previous frame (mod 256).
func temporalDeltas(pix, prev []uint8) []uint8 {
	dst := make([]uint8, len(pix))
	for i := range pix {
		dst[i] = pix[i] - prev[i]
	}
	return dst
}

// encodeRuns compresses a residual stream with a zero-run/literal token
// scheme: token 0x80|n encodes a run of n+1 zero bytes (n in [0,127]);
// token n (n in [0,127]) is followed by n+1 literal bytes.
func encodeRuns(src []uint8) []byte {
	out := make([]byte, 0, len(src)/4+16)
	i := 0
	for i < len(src) {
		if src[i] == 0 {
			run := 1
			for i+run < len(src) && src[i+run] == 0 && run < 128 {
				run++
			}
			out = append(out, uint8(0x80|(run-1)))
			i += run
			continue
		}
		// Literal run: extend until a zero run of length >= 2 begins (a
		// single zero is cheaper inside the literal than a run token).
		start := i
		for i < len(src) && i-start < 128 {
			if src[i] == 0 && i+1 < len(src) && src[i+1] == 0 {
				break
			}
			if src[i] == 0 && i+1 == len(src) {
				break
			}
			i++
		}
		n := i - start
		out = append(out, uint8(n-1))
		out = append(out, src[start:i]...)
	}
	return out
}

// WriteFile encodes the frame sequence to path with the given parameters.
func WriteFile(path string, frames []*frame.Image, fps, gop int) error {
	data, err := EncodeAll(frames, fps, gop)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		return fmt.Errorf("vidfmt: %w", err)
	}
	return nil
}

// File is an SVF file open for reading: a Reader whose decode errors name
// the file. Close releases it.
type File struct {
	*Reader
	f *os.File
}

// Open opens an SVF file and reads its header and frame index; frames are
// decoded only as they are scanned.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("vidfmt: %w", err)
	}
	r, err := OpenReader(f)
	if err != nil {
		f.Close() // only read
		return nil, fmt.Errorf("vidfmt: %s: %w", path, err)
	}
	r.name = path
	return &File{Reader: r, f: f}, nil
}

// Close closes the file.
func (f *File) Close() error { return f.f.Close() }

// ReadFile decodes all frames from an SVF file. The file is read one frame
// record at a time, so the decode holds the frames and one record, not the
// file beside them.
func ReadFile(path string) ([]*frame.Image, Meta, error) {
	f, err := Open(path)
	if err != nil {
		return nil, Meta{}, err
	}
	defer f.Close() // only read
	frames, err := f.Frames(0, f.Len())
	if err != nil {
		return nil, Meta{}, err
	}
	return frames, f.meta, nil
}

// EncodeAll encodes frames into an in-memory SVF stream.
func EncodeAll(frames []*frame.Image, fps, gop int) ([]byte, error) {
	if len(frames) == 0 {
		return nil, errors.New("vidfmt: no frames to encode")
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, frames[0].W, frames[0].H, fps, gop)
	if err != nil {
		return nil, err
	}
	for _, im := range frames {
		if err := w.WriteFrame(im); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeAll decodes every frame of an in-memory SVF stream.
func DecodeAll(data []byte) ([]*frame.Image, Meta, error) {
	r, err := OpenReader(bytes.NewReader(data))
	if err != nil {
		return nil, Meta{}, err
	}
	frames, err := r.Frames(0, r.Len())
	if err != nil {
		return nil, Meta{}, err
	}
	return frames, r.meta, nil
}

// BaseName derives a document name from an SVF path: the file's base name
// without its extension.
func BaseName(path string) string {
	return strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
}
