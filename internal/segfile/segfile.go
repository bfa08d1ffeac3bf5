// Package segfile is the memory-mappable container format of the zero-copy
// persistence path: a flat file of named, 64-byte-aligned, CRC-checksummed
// binary blocks behind a fixed header and an offset table.
//
// Layout:
//
//	header | block₀ … blockₙ₋₁ | TOC | footer
//
//	header (32 bytes):  magic "DLSEGF1\n" | u32 version | u32 byte-order
//	                    marker | u32 flags | 8 reserved | u32 header CRC
//	block:              zero padding to the next 64-byte boundary, then the
//	                    block's raw bytes (layout is the block owner's)
//	TOC:                u32 count, then per block:
//	                    u64 off | u64 len | u32 CRC | u32 nameLen | name
//	footer (40 bytes):  u64 tocOff | u64 tocLen | u32 TOC CRC | u32 reserved
//	                    | u64 fileLen | magic "DLSEGF.E"
//
// The TOC and footer sit at the END of the file so the format can be
// produced by a single forward pass over any io.Writer (SaveIndex streams)
// and still be opened with one mmap: a reader parses the fixed header, the
// fixed-size footer at the tail, and the TOC the footer points at — O(blocks)
// work no matter how large the blocks are.
//
// All multi-byte integers are little-endian, declared by the byte-order
// marker in the header; NewWriter and NewReader refuse big-endian hosts, so
// the typed codec (view.go) writes arrays as their memory image and reads
// them back by aliasing mapped bytes directly.
//
// Checksum policy: the header, footer, and TOC are verified on every open —
// a truncated, rewritten, or arbitrarily corrupted file fails before any
// block is trusted. Every block carries a CRC32 (IEEE) in the TOC. Structural
// blocks (records, dictionaries, offset tables, names) are small and are
// verified when their owner reads them (Structural, Record). Bulk blocks
// (Bulk) are never checksummed: verifying them would fault every page of a
// mapped file in, defeating lazy on-demand paging. Their owners bound-check
// what they read instead — sizes and offsets at open, and values used as
// indexes where they are used (the text kernel bounds every posting's doc
// ID), so a damaged bulk block yields an error, never a panic.
package segfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"unsafe"
)

// magic is the 8-byte file prefix identifying the segfile container.
const magic = "DLSEGF1\n"

const (
	footerMagic = "DLSEGF.E"
	// Version is the container format version. Readers reject files with a
	// different version rather than guessing at layout.
	Version = 1
	// byteOrderMark reads back as itself only when the file's byte order
	// matches the reader's decoder (little-endian everywhere).
	byteOrderMark = 0x0A0B0C0D
	// Align is the file offset alignment of every block: one cache line,
	// and a common divisor of every primitive size the typed views alias,
	// so a view over a whole block never needs the copying fallback.
	Align = 64

	headerSize = 32
	footerSize = 40

	// maxBlocks and maxNameLen bound TOC parsing against hostile counts.
	maxBlocks  = 1 << 20
	maxNameLen = 4096
)

// hostLittleEndian reports whether this host stores integers little-endian.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

var errBigEndian = errors.New("segfile: big-endian hosts are not supported")

// ErrNotSegfile reports input that is not a segfile at all: no magic, too
// short to hold a header and a footer, or a directory. (Input that has the
// magic but is damaged further in fails with the container's own errors.)
var ErrNotSegfile = errors.New("segfile: not a segfile")

// ---------------------------------------------------------------- writer

type tocEntry struct {
	name string
	off  uint64
	len  uint64
	crc  uint32
}

// Writer produces a segfile with a single forward pass over w. Blocks are
// written in Block call order; Close appends the TOC and footer. Errors are
// sticky: the first failure of any call is kept, every later call writes
// nothing, and Close returns it — so a block owner writes its blocks and
// returns what Close returns. A Writer is not safe for concurrent use.
type Writer struct {
	w     io.Writer
	off   uint64
	ents  []tocEntry
	seen  map[string]struct{}
	erred error
}

// NewWriter writes the container header and returns a writer positioned at
// the first block.
func NewWriter(w io.Writer) (*Writer, error) {
	if !hostLittleEndian {
		return nil, errBigEndian
	}
	var h [headerSize]byte
	copy(h[0:8], magic)
	binary.LittleEndian.PutUint32(h[8:12], Version)
	binary.LittleEndian.PutUint32(h[12:16], byteOrderMark)
	// h[16:20] flags, h[20:28] reserved: zero.
	binary.LittleEndian.PutUint32(h[28:32], crc32.ChecksumIEEE(h[:28]))
	if _, err := w.Write(h[:]); err != nil {
		return nil, fmt.Errorf("segfile: write header: %w", err)
	}
	return &Writer{w: w, off: headerSize, seen: map[string]struct{}{}}, nil
}

var padding [Align]byte

// Block writes one named block, padding the file to the 64-byte alignment
// boundary first. parts are concatenated — callers can assemble a block
// from several buffers without copying them together. Names must be unique
// and non-empty.
func (w *Writer) Block(name string, parts ...[]byte) {
	if w.erred != nil {
		return
	}
	if name == "" || len(name) > maxNameLen {
		w.erred = fmt.Errorf("segfile: bad block name %q", name)
		return
	}
	if _, dup := w.seen[name]; dup {
		w.erred = fmt.Errorf("segfile: duplicate block %q", name)
		return
	}
	if pad := (Align - w.off%Align) % Align; pad != 0 {
		if _, err := w.w.Write(padding[:pad]); err != nil {
			w.erred = fmt.Errorf("segfile: pad: %w", err)
			return
		}
		w.off += pad
	}
	ent := tocEntry{name: name, off: w.off}
	crc := crc32.NewIEEE()
	for _, p := range parts {
		if _, err := w.w.Write(p); err != nil {
			w.erred = fmt.Errorf("segfile: block %q: %w", name, err)
			return
		}
		crc.Write(p)
		ent.len += uint64(len(p))
	}
	ent.crc = crc.Sum32()
	w.off += ent.len
	w.seen[name] = struct{}{}
	w.ents = append(w.ents, ent)
}

// Close writes the TOC and footer and returns the writer's first error. The
// Writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.erred != nil {
		return w.erred
	}
	toc := make([]byte, 0, 4+len(w.ents)*32)
	toc = binary.LittleEndian.AppendUint32(toc, uint32(len(w.ents)))
	for _, e := range w.ents {
		toc = binary.LittleEndian.AppendUint64(toc, e.off)
		toc = binary.LittleEndian.AppendUint64(toc, e.len)
		toc = binary.LittleEndian.AppendUint32(toc, e.crc)
		toc = binary.LittleEndian.AppendUint32(toc, uint32(len(e.name)))
		toc = append(toc, e.name...)
	}
	tocOff := w.off
	if _, err := w.w.Write(toc); err != nil {
		w.erred = fmt.Errorf("segfile: write TOC: %w", err)
		return w.erred
	}
	var f [footerSize]byte
	binary.LittleEndian.PutUint64(f[0:8], tocOff)
	binary.LittleEndian.PutUint64(f[8:16], uint64(len(toc)))
	binary.LittleEndian.PutUint32(f[16:20], crc32.ChecksumIEEE(toc))
	// f[20:24] reserved: zero.
	binary.LittleEndian.PutUint64(f[24:32], tocOff+uint64(len(toc))+footerSize)
	copy(f[32:40], footerMagic)
	if _, err := w.w.Write(f[:]); err != nil {
		w.erred = fmt.Errorf("segfile: write footer: %w", err)
		return w.erred
	}
	w.erred = fmt.Errorf("segfile: writer closed")
	return nil
}

// ---------------------------------------------------------------- reader

type blockRef struct {
	off uint64
	len uint64
	crc uint32
}

// Reader is a parsed view over a segfile's bytes. It never copies block
// payloads: Block returns subslices of the data it was opened over, so a
// Reader over mapped memory is a zero-copy window into the file. Reader is
// immutable after NewReader and safe for concurrent use.
type Reader struct {
	data  []byte
	refs  map[string]blockRef
	names []string // TOC order
}

// NewReader parses the container structure (header, footer, TOC) of data.
// Block payloads are NOT checksummed here — see the package checksum policy.
// Data without the magic, or too short for a header and a footer, fails with
// ErrNotSegfile.
func NewReader(data []byte) (*Reader, error) {
	if !hostLittleEndian {
		return nil, errBigEndian
	}
	if len(data) < headerSize+footerSize || string(data[:len(magic)]) != magic {
		return nil, ErrNotSegfile
	}
	h := data[:headerSize]
	if got, want := binary.LittleEndian.Uint32(h[28:32]), crc32.ChecksumIEEE(h[:28]); got != want {
		return nil, fmt.Errorf("segfile: header checksum mismatch (got %#x, want %#x)", got, want)
	}
	if v := binary.LittleEndian.Uint32(h[8:12]); v != Version {
		return nil, fmt.Errorf("segfile: unsupported format version %d (want %d)", v, Version)
	}
	if bo := binary.LittleEndian.Uint32(h[12:16]); bo != byteOrderMark {
		return nil, fmt.Errorf("segfile: byte-order marker %#x (file not little-endian?)", bo)
	}
	f := data[len(data)-footerSize:]
	if string(f[32:40]) != footerMagic {
		return nil, fmt.Errorf("segfile: bad footer magic %q (truncated file?)", f[32:40])
	}
	if fl := binary.LittleEndian.Uint64(f[24:32]); fl != uint64(len(data)) {
		return nil, fmt.Errorf("segfile: footer records %d bytes, file has %d", fl, len(data))
	}
	if rsv := binary.LittleEndian.Uint32(f[20:24]); rsv != 0 {
		return nil, fmt.Errorf("segfile: footer reserved bytes %#x (must be zero)", rsv)
	}
	tocOff := binary.LittleEndian.Uint64(f[0:8])
	tocLen := binary.LittleEndian.Uint64(f[8:16])
	end := uint64(len(data) - footerSize)
	if tocOff < headerSize || tocOff > end || tocLen > end-tocOff {
		return nil, fmt.Errorf("segfile: TOC [%d, %d+%d) out of bounds", tocOff, tocOff, tocLen)
	}
	toc := data[tocOff : tocOff+tocLen]
	if got, want := binary.LittleEndian.Uint32(f[16:20]), crc32.ChecksumIEEE(toc); got != want {
		return nil, fmt.Errorf("segfile: TOC checksum mismatch (got %#x, want %#x)", got, want)
	}
	if len(toc) < 4 {
		return nil, fmt.Errorf("segfile: TOC too short (%d bytes)", len(toc))
	}
	count := binary.LittleEndian.Uint32(toc[:4])
	if count > maxBlocks {
		return nil, fmt.Errorf("segfile: implausible block count %d", count)
	}
	// Each entry is at least 25 bytes (24 fixed + 1 name byte), so the
	// claimed count cannot exceed what the verified TOC can physically hold
	// — preallocation below is bounded by bytes actually present.
	if uint64(count) > uint64(len(toc)-4)/25 {
		return nil, fmt.Errorf("segfile: block count %d exceeds TOC size", count)
	}
	r := &Reader{
		data:  data,
		refs:  make(map[string]blockRef, count),
		names: make([]string, 0, count),
	}
	cur := toc[4:]
	for i := uint32(0); i < count; i++ {
		if len(cur) < 24 {
			return nil, fmt.Errorf("segfile: TOC entry %d truncated", i)
		}
		ref := blockRef{
			off: binary.LittleEndian.Uint64(cur[0:8]),
			len: binary.LittleEndian.Uint64(cur[8:16]),
			crc: binary.LittleEndian.Uint32(cur[16:20]),
		}
		nameLen := binary.LittleEndian.Uint32(cur[20:24])
		if nameLen == 0 || nameLen > maxNameLen || uint64(nameLen) > uint64(len(cur)-24) {
			return nil, fmt.Errorf("segfile: TOC entry %d: bad name length %d", i, nameLen)
		}
		name := string(cur[24 : 24+nameLen])
		cur = cur[24+nameLen:]
		if ref.off%Align != 0 {
			return nil, fmt.Errorf("segfile: block %q at unaligned offset %d", name, ref.off)
		}
		if ref.off < headerSize || ref.off > tocOff || ref.len > tocOff-ref.off {
			return nil, fmt.Errorf("segfile: block %q [%d, %d+%d) out of bounds", name, ref.off, ref.off, ref.len)
		}
		if _, dup := r.refs[name]; dup {
			return nil, fmt.Errorf("segfile: duplicate block %q", name)
		}
		r.refs[name] = ref
		r.names = append(r.names, name)
	}
	return r, nil
}

// Block returns the named block's payload — a subslice of the reader's
// backing bytes, valid only while the backing mapping is.
func (r *Reader) Block(name string) ([]byte, bool) {
	ref, ok := r.refs[name]
	if !ok {
		return nil, false
	}
	return r.data[ref.off : ref.off+ref.len], true
}

// Has reports whether the named block exists.
func (r *Reader) Has(name string) bool { _, ok := r.refs[name]; return ok }

// VerifyBlock checks the named block's payload against its TOC checksum.
// It faults the block's pages in.
func (r *Reader) VerifyBlock(name string) error {
	ref, ok := r.refs[name]
	if !ok {
		return fmt.Errorf("segfile: no block %q", name)
	}
	if got := crc32.ChecksumIEEE(r.data[ref.off : ref.off+ref.len]); got != ref.crc {
		return fmt.Errorf("segfile: block %q checksum mismatch (got %#x, want %#x)", name, got, ref.crc)
	}
	return nil
}

// ------------------------------------------------- block-owner helpers

// Structural returns a block that opening depends on as n values of T (any
// count when n < 0): present, checksum-verified (these are the small blocks
// — dictionaries, offset tables, names — so the cost never scales with the
// bulk payloads), and viewed through View.
func Structural[T any](r *Reader, name string, n int) ([]T, error) {
	if err := r.VerifyBlock(name); err != nil {
		return nil, err
	}
	return Bulk[T](r, name, n)
}

// Bulk returns a bulk block as n values of T (any count when n < 0), NOT
// checksummed — verifying would fault every page of a mapped file in. Its
// owner bound-checks what it reads from it (see the checksum policy).
func Bulk[T any](r *Reader, name string, n int) ([]T, error) {
	b, ok := r.Block(name)
	if !ok {
		return nil, fmt.Errorf("segfile: no block %q", name)
	}
	vs, err := View[T](b)
	if err != nil {
		return nil, fmt.Errorf("segfile: block %q: %w", name, err)
	}
	if n >= 0 && len(vs) != n {
		return nil, fmt.Errorf("segfile: block %q holds %d values, want %d", name, len(vs), n)
	}
	return vs, nil
}

// Record writes vs as one fixed-layout block in encoding/binary's packed
// little-endian form: each value a fixed-size struct, number or array, or a
// slice of them, one after the other with no padding.
func (w *Writer) Record(name string, vs ...any) {
	var buf bytes.Buffer
	for _, v := range vs {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil && w.erred == nil {
			w.erred = fmt.Errorf("segfile: record %q: %w", name, err)
		}
	}
	w.Block(name, buf.Bytes())
}

// Record decodes the structural block name, written by Writer.Record, into
// vs: pointers to fixed-size values, of which the last may point to a slice
// that takes every remaining whole value. The block must hold exactly that.
func (r *Reader) Record(name string, vs ...any) error {
	b, err := Structural[byte](r, name, -1)
	if err != nil {
		return err
	}
	rd := bytes.NewReader(b)
	for i, v := range vs {
		if s := reflect.ValueOf(v).Elem(); i == len(vs)-1 && s.Kind() == reflect.Slice {
			size := binary.Size(reflect.Zero(s.Type().Elem()).Interface())
			if size <= 0 || rd.Len()%size != 0 {
				return fmt.Errorf("segfile: record %q: %d trailing bytes are not whole %s values", name, rd.Len(), s.Type().Elem())
			}
			s.Set(reflect.MakeSlice(s.Type(), rd.Len()/size, rd.Len()/size))
		}
		if err := binary.Read(rd, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("segfile: record %q is %d bytes: %w", name, len(b), err)
		}
	}
	if rd.Len() != 0 {
		return fmt.Errorf("segfile: record %q is %d bytes, %d past its end", name, len(b), rd.Len())
	}
	return nil
}

// Table is a string table in its stored form: the strings' bytes
// concatenated in Data, and the n+1 offsets delimiting them in Off, so
// string i is Data[Off[i]:Off[i+1]]. A table read from a file aliases the
// file's bytes; one built by NewTable owns its arrays.
type Table struct {
	Data []byte
	Off  []uint32
}

// NewTable builds the table of the n strings at(0) … at(n-1).
func NewTable(n int, at func(i int) string) Table {
	t := Table{Off: make([]uint32, 1, n+1)}
	for i := 0; i < n; i++ {
		t.Append(at(i))
	}
	return t
}

// Append adds s as the table's last string. Only a table that owns its
// arrays may grow: the zero Table or one built by NewTable, never one read
// from a file. The bytes of earlier strings are never rewritten, so a
// string At returned stays valid.
func (t *Table) Append(s string) {
	if len(t.Off) == 0 {
		t.Off = append(t.Off, 0)
	}
	t.Data = append(t.Data, s...)
	t.Off = append(t.Off, uint32(len(t.Data)))
}

// Len returns the number of strings in the table.
func (t Table) Len() int { return max(len(t.Off)-1, 0) }

// At returns string i, aliasing the table's bytes.
func (t Table) At(i int) string {
	s := t.Data[t.Off[i]:t.Off[i+1]]
	if len(s) == 0 {
		return ""
	}
	return unsafe.String(&s[0], len(s))
}

// Table writes t as two blocks: its bytes under bytesName and its u32
// offsets under offName. The zero Table is written as the empty table.
func (w *Writer) Table(bytesName, offName string, t Table) {
	if len(t.Off) == 0 {
		t.Off = []uint32{0}
	}
	w.Block(bytesName, t.Data)
	w.Block(offName, Bytes(t.Off))
}

// Table reads back a table of n strings written by Writer.Table, aliasing
// the reader's bytes. Both blocks are structural; the offsets must start at
// 0, never descend, and end at the byte block's length, so every At of the
// returned table is in range.
func (r *Reader) Table(bytesName, offName string, n int) (Table, error) {
	if n < 0 {
		return Table{}, fmt.Errorf("segfile: string table %q of %d entries", bytesName, n)
	}
	data, err := Structural[byte](r, bytesName, -1)
	if err != nil {
		return Table{}, err
	}
	off, err := Structural[uint32](r, offName, n+1)
	if err != nil {
		return Table{}, err
	}
	if off[0] != 0 || uint64(off[n]) != uint64(len(data)) {
		return Table{}, fmt.Errorf("segfile: offsets %q do not span block %q", offName, bytesName)
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			return Table{}, fmt.Errorf("segfile: offsets %q descend at entry %d", offName, i)
		}
	}
	return Table{Data: data, Off: off}, nil
}
