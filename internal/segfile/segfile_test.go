package segfile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// verifyBlocks checks every block of r against its TOC checksum.
func verifyBlocks(r *Reader) error {
	for _, name := range r.names {
		if err := r.VerifyBlock(name); err != nil {
			return err
		}
	}
	return nil
}

func writeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.Block("alpha", []byte("hello"), []byte(" world"))
	w.Block("beta/0", Bytes([]float32{1.5, -2.25, 3}))
	w.Block("empty")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := writeSample(t)
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.names; fmt.Sprint(got) != "[alpha beta/0 empty]" {
		t.Fatalf("names = %v", got)
	}
	b, ok := r.Block("alpha")
	if !ok || string(b) != "hello world" {
		t.Fatalf("alpha = %q, %v", b, ok)
	}
	fb, ok := r.Block("beta/0")
	if !ok {
		t.Fatal("no beta/0")
	}
	fs, err := View[float32](fb)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 3 || fs[0] != 1.5 || fs[1] != -2.25 || fs[2] != 3 {
		t.Fatalf("floats = %v", fs)
	}
	eb, ok := r.Block("empty")
	if !ok || len(eb) != 0 {
		t.Fatalf("empty = %v, %v", eb, ok)
	}
	if _, ok := r.Block("missing"); ok {
		t.Fatal("found missing block")
	}
	if err := verifyBlocks(r); err != nil {
		t.Fatal(err)
	}
}

func TestBlockAlignment(t *testing.T) {
	data := writeSample(t)
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	base := uintptr(unsafe.Pointer(&data[0]))
	for _, name := range r.names {
		b, _ := r.Block(name)
		if len(b) == 0 {
			continue
		}
		off := uintptr(unsafe.Pointer(&b[0])) - base
		if off%Align != 0 {
			t.Errorf("block %q at file offset %d: not %d-aligned", name, off, Align)
		}
	}
}

func TestWriterDeterministic(t *testing.T) {
	a, b := writeSample(t), writeSample(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical writes produced different bytes")
	}
}

func TestWriterRejects(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Block("")
	if err := w.Close(); err == nil {
		t.Fatal("empty name accepted")
	}
	w, _ = NewWriter(&buf)
	w.Block("x", nil)
	w.Block("x", nil)
	w.Block("y", nil) // after the first error nothing more is written
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), `duplicate block "x"`) {
		t.Fatalf("duplicate name: Close = %v", err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	data := writeSample(t)
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := r.Block("alpha")
	b[0] ^= 0xFF
	if err := r.VerifyBlock("alpha"); err == nil {
		t.Fatal("flipped bit not detected")
	}
	if err := verifyBlocks(r); err == nil {
		t.Fatal("verifyBlocks missed flipped bit")
	}
	b[0] ^= 0xFF
	if err := verifyBlocks(r); err != nil {
		t.Fatal(err)
	}
}

func TestHostileBytes(t *testing.T) {
	data := writeSample(t)
	// Truncations at every boundary class.
	for _, n := range []int{0, 1, headerSize - 1, headerSize, headerSize + footerSize - 1, len(data) - 1} {
		if _, err := NewReader(data[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	// Every single-byte corruption of the header or footer must be rejected
	// at parse time (both are fully covered by checksums or must-be-zero
	// rules). Corruption anywhere else must never panic; payload corruption
	// detection is TestVerifyDetectsCorruption's job.
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		r, err := NewReader(mut)
		inHeader := i < headerSize
		inFooter := i >= len(data)-footerSize
		if (inHeader || inFooter) && err == nil {
			t.Errorf("flipping byte %d (header/footer) accepted", i)
		}
		if r != nil {
			_ = verifyBlocks(r)
		}
	}
}

func TestOpenFile(t *testing.T) {
	data := writeSample(t)
	path := filepath.Join(t.TempDir(), "sample.segf")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := MappedBytes()
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := MappedBytes() - before; got != int64(len(data)) {
		t.Fatalf("Open counted %d mapped bytes, want the file's %d", got, len(data))
	}
	b, ok := f.Block("alpha")
	if !ok || string(b) != "hello world" {
		t.Fatalf("alpha = %q, %v", b, ok)
	}
	if err := verifyBlocks(f.Reader); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.segf")); err == nil {
		t.Fatal("opened missing file")
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("opened a truncated file")
	}
	// Two Closes and a refused open leave the count where it began.
	if got := MappedBytes(); got != before {
		t.Fatalf("mapped bytes %d after Close, want %d", got, before)
	}
}

func FuzzReader(f *testing.F) {
	f.Add(writeSampleBytes())
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(data)
		if err != nil {
			return
		}
		for _, name := range r.names {
			if b, ok := r.Block(name); !ok || uint64(len(b)) > uint64(len(data)) {
				t.Fatalf("block %q inconsistent", name)
			}
			_ = r.VerifyBlock(name)
		}
	})
}

func writeSampleBytes() []byte {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Block("alpha", []byte("hello world"))
	w.Block("nums", Bytes([]uint64{1, 2, 3}))
	w.Close()
	return buf.Bytes()
}

// TestRecord round-trips a fixed-layout record with a variable tail and
// refuses blocks that are not exactly one.
func TestRecord(t *testing.T) {
	type head struct {
		Version, N uint32
		Gen        uint64
	}
	type entry struct{ A, B uint64 }
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Record("rec", head{2, 3, 9}, []entry{{1, 2}, {3, 4}, {5, 6}})
	w.Record("short", uint32(7))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := r.Block("rec"); len(b) != 16+3*16 {
		t.Fatalf("record is %d bytes, want packed %d", len(b), 16+3*16)
	}
	var h head
	var ents []entry
	if err := r.Record("rec", &h, &ents); err != nil {
		t.Fatal(err)
	}
	if h != (head{2, 3, 9}) || fmt.Sprint(ents) != "[{1 2} {3 4} {5 6}]" {
		t.Fatalf("record = %+v %v", h, ents)
	}
	if err := r.Record("rec", &h); err == nil {
		t.Fatal("record with bytes past its end accepted")
	}
	if err := r.Record("short", &h); err == nil {
		t.Fatal("short record accepted")
	}
	var one uint32
	if err := r.Record("short", &one); err != nil || one != 7 {
		t.Fatalf("short = %d, %v", one, err)
	}
	var odd []head
	if err := r.Record("rec", &one, &odd); err == nil {
		t.Fatal("tail of partial values accepted")
	}
}

// TestTableAppend: a table grown by Append holds what NewTable builds from
// the same strings, a string At returned survives later appends, and the
// zero Table is written as the empty table.
func TestTableAppend(t *testing.T) {
	strs := []string{"", "alpha", "", "ßeta", "gamma"}
	var grown Table
	first := ""
	for i, s := range strs {
		grown.Append(s)
		if i == 1 {
			first = grown.At(1)
		}
	}
	built := NewTable(len(strs), func(i int) string { return strs[i] })
	if !reflect.DeepEqual(grown.Off, built.Off) || !bytes.Equal(grown.Data, built.Data) || first != "alpha" {
		t.Fatalf("grown %v %q, built %v %q, first %q", grown.Off, grown.Data, built.Off, built.Data, first)
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Table("s", "soff", grown)
	w.Table("z", "zoff", Table{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	back, err := r.Table("s", "soff", len(strs))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range strs {
		if back.At(i) != s {
			t.Fatalf("string %d = %q, want %q", i, back.At(i), s)
		}
	}
	if z, err := r.Table("z", "zoff", 0); err != nil || z.Len() != 0 {
		t.Fatalf("zero table read back as %d strings, %v", z.Len(), err)
	}
}
