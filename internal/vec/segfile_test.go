package vec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/segfile"
	"repro/internal/segset"
)

// openBytes opens in-memory segfile bytes the way OpenFile opens the
// mapping: a container reader handed to openReader.
func openBytes(data []byte, e *HashEmbedder, wantSignature uint64, pages segset.Bases) (*Segments, error) {
	r, err := segfile.NewReader(data)
	if err != nil {
		return nil, err
	}
	return openReader(r, e, wantSignature, pages)
}

// writtenBytes serializes a small real corpus split nseg ways, and returns
// the parts' partition beside it.
func writtenBytes(t testing.TB, ndocs, nseg int, sig uint64) ([]byte, segset.Bases) {
	t.Helper()
	names, texts := synthDocs(ndocs, 13)
	return writeCorpus(t, names, texts, nseg, sig)
}

func writeCorpus(t testing.TB, names, texts []string, nseg int, sig uint64) ([]byte, segset.Bases) {
	t.Helper()
	e := DefaultEmbedder()
	parts, pages := partitioned(e, names, texts, nseg)
	var buf bytes.Buffer
	if err := Write(&buf, e, parts, sig); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), pages
}

// searchAll runs every test query, returning the flattened hits for
// equality checks.
func searchAll(t *testing.T, s *Segments) []ir.Hit {
	t.Helper()
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

// TestVecSegfileRoundTrip: heap-built and reopened segments answer every
// query byte-identically, across partition counts.
func TestVecSegfileRoundTrip(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(90, 13)
	for _, nseg := range []int{1, 2, 4} {
		built := compose(t, e, names, texts, nseg)
		data, pages := writtenBytes(t, 90, nseg, 77)
		opened, err := openBytes(data, e, 77, pages)
		if err != nil {
			t.Fatal(err)
		}
		if len(opened.segs) != nseg {
			t.Fatalf("segs=%d: opened %d parts", nseg, len(opened.segs))
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
// to the same bytes — the property atomic cache rewrites ride — and the
// coordinates those bytes rebuild are the ones PR 15's format-1 file
// stored for this corpus.
func TestVecSegfileWriteDeterministic(t *testing.T) {
	a, _ := writtenBytes(t, 60, 3, 5)
	b, _ := writtenBytes(t, 60, 3, 5)
	if !bytes.Equal(a, b) {
		t.Fatal("two writes of the same builders differ")
	}
	// Golden: sha256 of the three segments' float32 embedding blocks in the
	// format-1 file for this corpus (PR 15's bytes), which the coordinates
	// float32(code)*scale rebuilt from the format-2 blocks must reproduce.
	const golden = "41dafdf7c23fdd8d25a440bd89363f1ca162589b593f5d6baf38fbdd87d14f85"
	h := sha256.New()
	for _, seg := range rawSegments(t, a) {
		for _, x := range seg.coords(DefaultDim) {
			binary.Write(h, binary.LittleEndian, x)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != golden {
		t.Fatalf("vec segfile coordinates changed: sha256 %s, want %s", got, golden)
	}
}

// TestVecSegfileSignature: signature, embedder, and dimension mismatches
// are all refused with ErrSignature; partitions that do not count each
// segment's documents are refused too.
func TestVecSegfileSignature(t *testing.T) {
	data, pages := writtenBytes(t, 30, 2, 42)
	if _, err := openBytes(data, DefaultEmbedder(), 42, pages); err != nil {
		t.Fatalf("matching signature refused: %v", err)
	}
	if _, err := openBytes(data, DefaultEmbedder(), 0, pages); err != nil {
		t.Fatalf("unchecked signature refused: %v", err)
	}
	if _, err := openBytes(data, DefaultEmbedder(), 43, pages); !errors.Is(err, ErrSignature) {
		t.Fatalf("wrong signature: err %v, want ErrSignature", err)
	}
	if _, err := openBytes(data, NewHashEmbedder(32), 42, pages); !errors.Is(err, ErrSignature) {
		t.Fatalf("wrong dimension: err %v, want ErrSignature", err)
	}
	_, other := writtenBytes(t, 31, 2, 42)
	for _, pages := range []segset.Bases{segset.NewBases(nil), segset.NewBases([]int{30}), segset.NewBases([]int{15, 15, 0}), other} {
		if _, err := openBytes(data, DefaultEmbedder(), 42, pages); err == nil {
			t.Fatalf("a partition of %d parts of the wrong counts accepted", pages.Parts())
		}
	}
}

// TestVecSegfileOpenFile: the mmap path answers identically to the heap
// path.
func TestVecSegfileOpenFile(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(70, 13)
	built, pages := partitioned(e, names, texts, 2)
	path := filepath.Join(t.TempDir(), "vec.segf")
	if err := WriteFile(path, e, built, 9); err != nil {
		t.Fatal(err)
	}
	s, closer, err := OpenFile(path, e, 9, pages)
	if err != nil {
		t.Fatal(err)
	}
	want := searchAll(t, compose(t, e, names, texts, 2))
	got := searchAll(t, s)
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
	data, pages := writtenBytes(t, 40, 2, 3)
	open := func(b []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic: %v", r)
			}
		}()
		s, err := openBytes(b, DefaultEmbedder(), 0, pages)
		if err != nil {
			return
		}
		// A successfully opened file must be searchable.
		searchAll(t, s)
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

// rawSeg is one segment's blocks as a vec file stores them.
type rawSeg struct {
	docs         uint32
	width        uint8
	codes, scale []byte
}

// coords rebuilds the segment's float32 coordinates from its blocks,
// independently of the package's reader.
func (s rawSeg) coords(dim int) []float32 {
	out := make([]float32, 0, int(s.docs)*dim)
	for i := 0; i < int(s.docs)*dim; i++ {
		var c int32
		switch s.width {
		case 1:
			c = int32(int8(s.codes[i]))
		case 2:
			c = int32(int16(binary.LittleEndian.Uint16(s.codes[2*i:])))
		case 4:
			c = int32(binary.LittleEndian.Uint32(s.codes[4*i:]))
		}
		scale := math.Float32frombits(binary.LittleEndian.Uint32(s.scale[4*(i/dim):]))
		out = append(out, float32(c)*scale)
	}
	return out
}

// rawSegments reads the per-segment blocks of a well-formed vec file.
func rawSegments(t testing.TB, data []byte) []rawSeg {
	t.Helper()
	r, err := segfile.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var meta fileMeta
	if err := r.Record("vec/meta", &meta); err != nil {
		t.Fatal(err)
	}
	segs := make([]rawSeg, meta.Segments)
	for i := range segs {
		prefix := fmt.Sprintf("vec/%d/", i)
		if err := r.Record(prefix+"meta", &segs[i].docs, &segs[i].width); err != nil {
			t.Fatal(err)
		}
		segs[i].codes, _ = r.Block(prefix + "codes")
		segs[i].scale, _ = r.Block(prefix + "scale")
	}
	return segs
}

// rewritten re-serializes the vec file data after edit has changed its
// segments' blocks: a hand-edited file whose every checksum is valid.
func rewritten(t testing.TB, data []byte, edit func(segs []rawSeg)) []byte {
	t.Helper()
	r, err := segfile.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var meta fileMeta
	if err := r.Record("vec/meta", &meta); err != nil {
		t.Fatal(err)
	}
	emb, _ := r.Block("vec/emb")
	segs := rawSegments(t, data)
	edit(segs)
	var buf bytes.Buffer
	w, err := segfile.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.Record("vec/meta", meta)
	w.Block("vec/emb", emb)
	for i, s := range segs {
		prefix := fmt.Sprintf("vec/%d/", i)
		w.Record(prefix+"meta", s.docs, s.width)
		w.Block(prefix+"codes", s.codes)
		w.Block(prefix+"scale", s.scale)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzVecSegfileOpen: hostile vector segfiles error cleanly, never
// panic — the same guarantee FuzzSegfileOpen locks for the text lane.
// Every input is opened under the partition of the 25-document corpus
// the seeds were written from.
func FuzzVecSegfileOpen(f *testing.F) {
	data, pages := writtenBytes(f, 25, 2, 7)
	f.Add(data)
	for _, cut := range []int{0, 8, 64, len(data) / 2, len(data) - 1} {
		f.Add(data[:cut])
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)/3] ^= 0xFF
	f.Add(mut)

	// Writer-made int16 and int32 segments: one document of each part
	// repeats a word until its count outgrows the narrower widths.
	names, texts := synthDocs(25, 13)
	texts[2] = strings.Repeat("ace ", 100)
	texts[20] = strings.Repeat("ace ", 20000)
	wide, _ := writeCorpus(f, names, texts, 2, 7)
	if segs := rawSegments(f, wide); segs[0].width != 2 || segs[1].width != 4 {
		f.Fatalf("wide seed has code widths %d and %d, want 2 and 4", segs[0].width, segs[1].width)
	}
	f.Add(wide)

	// Hand-edited files, valid checksums and all, that must be refused.
	dim := DefaultDim
	valid := func(edit func(s []rawSeg)) []byte {
		return rewritten(f, data, edit)
	}
	for _, b := range [][]byte{
		valid(func(s []rawSeg) { s[0].width = 3 }),
		valid(func(s []rawSeg) { s[0].width = 2 }),                              // codes of D·dim bytes, not D·dim·2
		valid(func(s []rawSeg) { s[0].codes = s[0].codes[:len(s[0].codes)-1] }), // one code short
		valid(func(s []rawSeg) { s[1].scale = s[1].scale[:len(s[1].scale)-4] }), // one scale short
		valid(func(s []rawSeg) { // a document moved from part 1 to part 0
			s[0].docs, s[1].docs = s[0].docs+1, s[1].docs-1
			s[0].codes = append(append([]byte(nil), s[0].codes...), s[1].codes[:dim]...)
			s[1].codes = s[1].codes[dim:]
			s[0].scale = append(append([]byte(nil), s[0].scale...), s[1].scale[:4]...)
			s[1].scale = s[1].scale[4:]
		}),
	} {
		if _, err := openBytes(b, DefaultEmbedder(), 0, pages); err == nil {
			f.Fatal("a hand-edited seed opened")
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := openBytes(b, DefaultEmbedder(), 0, pages)
		if err != nil {
			return
		}
		if _, _, err := s.Search("net play", 5); err != nil && !errors.Is(err, ir.ErrEmptyQry) {
			t.Fatalf("opened file cannot search: %v", err)
		}
	})
}
