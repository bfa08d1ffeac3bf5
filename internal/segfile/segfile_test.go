package segfile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
	if err := w.Block("alpha", []byte("hello"), []byte(" world")); err != nil {
		t.Fatal(err)
	}
	if err := w.Block("beta/0", AppendFloat32s(nil, []float32{1.5, -2.25, 3})); err != nil {
		t.Fatal(err)
	}
	if err := w.Block("empty"); err != nil {
		t.Fatal(err)
	}
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
	fs, err := Float32s(fb)
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
	if err := w.Block(""); err == nil {
		t.Fatal("empty name accepted")
	}
	w, _ = NewWriter(&buf)
	if err := w.Block("x", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Block("x", nil); err == nil {
		t.Fatal("duplicate name accepted")
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

func TestViewsMisalignedFallback(t *testing.T) {
	raw := AppendFloat32s(nil, []float32{1, 2, 3, 4})
	buf := make([]byte, len(raw)+1)
	copy(buf[1:], raw)
	odd := buf[1:] // deliberately misaligned base pointer
	fs, err := Float32s(odd)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float32{1, 2, 3, 4} {
		if fs[i] != want {
			t.Fatalf("fs[%d] = %v, want %v", i, fs[i], want)
		}
	}
	if _, err := Float32s(buf[:3]); err == nil {
		t.Fatal("length not multiple of 4 accepted")
	}
	if _, err := Uint64s(buf[:7]); err == nil {
		t.Fatal("length not multiple of 8 accepted")
	}
}

func TestViewsRoundTrip(t *testing.T) {
	u32 := []uint32{0, 1, 1<<32 - 1}
	got32, err := Uint32s(AppendUint32s(nil, u32))
	if err != nil || len(got32) != len(u32) {
		t.Fatalf("u32: %v %v", got32, err)
	}
	for i := range u32 {
		if got32[i] != u32[i] {
			t.Fatalf("u32[%d] = %d", i, got32[i])
		}
	}
	i32 := []int32{-5, 0, 7}
	goti, err := Int32s(AppendInt32s(nil, i32))
	if err != nil {
		t.Fatal(err)
	}
	for i := range i32 {
		if goti[i] != i32[i] {
			t.Fatalf("i32[%d] = %d", i, goti[i])
		}
	}
	u64 := []uint64{0, 1 << 40}
	got64, err := Uint64s(AppendUint64s(nil, u64))
	if err != nil {
		t.Fatal(err)
	}
	for i := range u64 {
		if got64[i] != u64[i] {
			t.Fatalf("u64[%d] = %d", i, got64[i])
		}
	}
	f64 := []float64{1.5, -0.25}
	gotf, err := Float64s(AppendFloat64s(nil, f64))
	if err != nil {
		t.Fatal(err)
	}
	for i := range f64 {
		if gotf[i] != f64[i] {
			t.Fatalf("f64[%d] = %v", i, gotf[i])
		}
	}
	if String([]byte("abc")) != "abc" || String(nil) != "" {
		t.Fatal("String view")
	}
}

func TestOpenFile(t *testing.T) {
	data := writeSample(t)
	path := filepath.Join(t.TempDir(), "sample.segf")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
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
}

func FuzzReader(f *testing.F) {
	f.Add(writeSampleBytes())
	f.Add([]byte(Magic))
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
	w.Block("nums", AppendUint64s(nil, []uint64{1, 2, 3}))
	w.Close()
	return buf.Bytes()
}
