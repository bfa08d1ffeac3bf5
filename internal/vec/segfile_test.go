package vec

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/ir"
	"repro/internal/segfile"
)

// writtenBytes serializes a small real corpus split nseg ways.
// openBytes opens in-memory segfile bytes the way OpenFile opens the
// mapping: a container reader handed to openReader.
func openBytes(data []byte, e Embedder, wantSignature uint64) ([]*Builder, error) {
	r, err := segfile.NewReader(data)
	if err != nil {
		return nil, err
	}
	return openReader(r, e, wantSignature)
}

func writtenBytes(t testing.TB, ndocs, nseg int, sig uint64) []byte {
	t.Helper()
	e := DefaultEmbedder()
	names, texts := synthDocs(ndocs, 13)
	var buf bytes.Buffer
	if err := Write(&buf, e, partitioned(e, names, texts, nseg), sig); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// searchAll composes builders and runs every test query, returning the
// flattened hits for equality checks.
func searchAll(t *testing.T, parts []*Builder) []ir.Hit {
	t.Helper()
	s, err := NewSegments(DefaultEmbedder(), parts)
	if err != nil {
		t.Fatal(err)
	}
	var all []ir.Hit
	for _, q := range testQueries {
		hits, _, err := s.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, hits...)
	}
	return all
}

// TestVecSegfileRoundTrip: heap-built and reopened builders answer every
// query byte-identically, across partition counts.
func TestVecSegfileRoundTrip(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(90, 13)
	for _, nseg := range []int{1, 2, 4} {
		built := partitioned(e, names, texts, nseg)
		data := writtenBytes(t, 90, nseg, 77)
		opened, err := openBytes(data, e, 77)
		if err != nil {
			t.Fatal(err)
		}
		if len(opened) != nseg {
			t.Fatalf("segs=%d: opened %d parts", nseg, len(opened))
		}
		want := searchAll(t, built)
		got := searchAll(t, opened)
		if len(got) != len(want) {
			t.Fatalf("segs=%d: %d hits, want %d", nseg, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("segs=%d hit %d: %+v, want %+v", nseg, i, got[i], want[i])
			}
		}
	}
}

// TestVecSegfileWriteDeterministic: the same builders always serialize
// to the same bytes — the property atomic cache rewrites ride.
func TestVecSegfileWriteDeterministic(t *testing.T) {
	a := writtenBytes(t, 60, 3, 5)
	b := writtenBytes(t, 60, 3, 5)
	if !bytes.Equal(a, b) {
		t.Fatal("two writes of the same builders differ")
	}
	// Golden: the bytes PR 15 wrote for this corpus (see the ir twin).
	const golden = "c3f4a514dacccb7d5bdf2cea80e8b657e3d613386130df2e04e54072fa8778ab"
	if got := fmt.Sprintf("%x", sha256.Sum256(a)); got != golden {
		t.Fatalf("vec segfile bytes changed: sha256 %s, want %s", got, golden)
	}
}

// TestVecSegfileSignature: signature, embedder, and dimension mismatches
// are all refused with ErrSignature.
func TestVecSegfileSignature(t *testing.T) {
	data := writtenBytes(t, 30, 2, 42)
	if _, err := openBytes(data, DefaultEmbedder(), 42); err != nil {
		t.Fatalf("matching signature refused: %v", err)
	}
	if _, err := openBytes(data, DefaultEmbedder(), 0); err != nil {
		t.Fatalf("unchecked signature refused: %v", err)
	}
	if _, err := openBytes(data, DefaultEmbedder(), 43); !errors.Is(err, ErrSignature) {
		t.Fatalf("wrong signature: err %v, want ErrSignature", err)
	}
	if _, err := openBytes(data, NewHashEmbedder(32), 42); !errors.Is(err, ErrSignature) {
		t.Fatalf("wrong dimension: err %v, want ErrSignature", err)
	}
}

// TestVecSegfileOpenFile: the mmap path answers identically to the heap
// path.
func TestVecSegfileOpenFile(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(70, 13)
	built := partitioned(e, names, texts, 2)
	path := filepath.Join(t.TempDir(), "vec.segf")
	if err := WriteFile(path, e, built, 9); err != nil {
		t.Fatal(err)
	}
	parts, closer, err := OpenFile(path, e, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := searchAll(t, built)
	got := searchAll(t, parts)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestVecSegfileHostileBytes: truncations and bit flips must never
// panic — they may error, or legitimately succeed when the damage lands
// in padding or a lazily-verified bulk block.
func TestVecSegfileHostileBytes(t *testing.T) {
	data := writtenBytes(t, 40, 2, 3)
	open := func(b []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic: %v", r)
			}
		}()
		parts, err := openBytes(b, DefaultEmbedder(), 0)
		if err != nil {
			return
		}
		// A successfully opened file must be internally consistent.
		if _, err := NewSegments(DefaultEmbedder(), parts); err != nil {
			return
		}
		for _, p := range parts {
			for i := 0; i < p.Len(); i++ {
				_ = p.Name(i)
			}
		}
	}
	for _, cut := range []int{0, 8, 80, len(data) / 2, len(data) - 1} {
		open(data[:cut])
	}
	for start := 0; start < len(data); start += 7 {
		mut := append([]byte(nil), data...)
		mut[start] ^= 0xA5
		open(mut)
	}
}

// FuzzVecSegfileOpen: hostile vector segfiles error cleanly, never
// panic — the same guarantee FuzzSegfileOpen locks for the text lane.
func FuzzVecSegfileOpen(f *testing.F) {
	data := writtenBytes(f, 25, 2, 7)
	f.Add(data)
	for _, cut := range []int{0, 8, 64, len(data) / 2, len(data) - 1} {
		f.Add(data[:cut])
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)/3] ^= 0xFF
	f.Add(mut)
	f.Fuzz(func(t *testing.T, b []byte) {
		parts, err := openBytes(b, DefaultEmbedder(), 0)
		if err != nil {
			return
		}
		s, err := NewSegments(DefaultEmbedder(), parts)
		if err != nil {
			return
		}
		for _, p := range parts {
			for i := 0; i < p.Len(); i++ {
				_ = p.Name(i)
			}
		}
		if _, _, err := s.Search("net play", 5); err != nil && !errors.Is(err, ir.ErrEmptyQry) {
			t.Fatalf("opened file cannot search: %v", err)
		}
	})
}
