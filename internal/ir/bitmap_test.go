package ir

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/segfile"
)

// ruleSegment builds a one-segment collection of docs documents holding
// three terms: "all" on every document, "bm" on the one given by inBM and
// "sp" on the ones given by inSP.
func ruleSegment(t testing.TB, docs int, inBM, inSP func(d int) bool) *Segments {
	t.Helper()
	ix := NewIndex()
	for d := 0; d < docs; d++ {
		text := "all"
		if inBM(d) {
			text += " bm"
		}
		if inSP(d) {
			text += " sp sp"
		}
		if _, err := ix.Add(fmt.Sprintf("d%d", d), text); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewSegments([]*Index{ix})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDenseRuleEdges holds the storage rule at its edges: in a segment of n
// documents a list of exactly n/16 stays sparse, one of n/16+1 becomes a
// bitmap and one of n stores no doc IDs, and each block is as many bytes as
// that makes — at a segment size that is not a multiple of 64, with a rank
// sample, and at 65,537 documents, across the 65,536 doc-ID width
// boundary. Heap-built and mapped, the top-k kernel and the dense scan
// answer as the map reference does.
func TestDenseRuleEdges(t *testing.T) {
	for _, c := range []struct {
		docs     int
		inBM     func(d int) bool
		inSP     func(d int) bool
		docBytes int // width of the sparse doc IDs
		rankSize int // width of the rank samples
	}{
		{1000, func(d int) bool { return d%16 == 3 && d < 1000 }, func(d int) bool { return d%16 == 5 && d < 992 }, 2, 1},
		{65537, func(d int) bool { return d%16 == 1 || d == 65536 }, func(d int) bool { return d%16 == 0 && d > 0 }, 4, 2},
	} {
		t.Run(fmt.Sprintf("docs=%d", c.docs), func(t *testing.T) {
			heap := ruleSegment(t, c.docs, c.inBM, c.inSP)
			data := segfileBytes(t, heap, 0)
			mapped, err := openSegmentsBytes(data, 0)
			if err != nil {
				t.Fatal(err)
			}
			n := c.docs / 16
			want := map[string]struct {
				kind listKind
				n    int
			}{"all": {fullList, c.docs}, "bm": {bitmapList, n + 1}, "sp": {sparseList, n}}
			for _, s := range []*Segments{heap, mapped} {
				ix := s.segs[0]
				for term, w := range want {
					o, ok := ix.lookup(term)
					if l := ix.list(o); !ok || l.kind != w.kind || l.hi-l.lo != w.n {
						t.Fatalf("%q: %s list of %d postings, want %s of %d", term, l.kind, l.hi-l.lo, w.kind, w.n)
					}
				}
			}
			r, err := segfile.NewReader(data)
			if err != nil {
				t.Fatal(err)
			}
			W := (c.docs + 63) / 64
			for block, size := range map[string]int{
				"postdoc":  n * c.docBytes,
				"postcode": c.docs + 2*n + 1,
				"bitord":   1,
				"fullord":  1,
				"bitmap":   8 * W,
				"bitrank":  (W - 1) / 8 * c.rankSize,
			} {
				if b, _ := r.Block("ir/0/" + block); len(b) != size {
					t.Errorf("block %s: %d bytes, want %d", block, len(b), size)
				}
			}
			ref := heap.segs[0]
			for _, q := range []string{"sp", "bm", "all", "sp bm", "bm all", "all sp bm", "sp nosuch"} {
				for _, k := range []int{1, 3, 10, n, 0} {
					wantHits, wantStats, err := ref.searchMapReference(q, k)
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range []*Segments{heap, mapped} {
						hits, stats, err := s.Search(q, k)
						if err != nil || len(hits) != len(wantHits) || stats.DocsTouched != wantStats.DocsTouched {
							t.Fatalf("q=%q k=%d: %d hits, total %d, err %v; reference %d, %d", q, k, len(hits), stats.DocsTouched, err, len(wantHits), wantStats.DocsTouched)
						}
						for i := range hits {
							if hits[i].Doc != wantHits[i].Doc || hits[i].Name != wantHits[i].Name ||
								math.Float64bits(hits[i].Score) != math.Float64bits(wantHits[i].Score) {
								t.Fatalf("q=%q k=%d hit %d: %+v, reference %+v", q, k, i, hits[i], wantHits[i])
							}
						}
					}
				}
			}
		})
	}
}

// rewriteFile writes a written one-segment text segfile again, block by
// block, each block named in edits rewritten by its function first (its
// checksum is the edited bytes').
func rewriteFile(t *testing.T, data []byte, edits map[string]func([]byte) []byte) []byte {
	t.Helper()
	r, err := segfile.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw, err := segfile.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"ir/meta"}
	for _, b := range []string{"meta", "terms", "termhead", "postoff", "bookoff", "booktf", "bookimp", "postdoc",
		"postcode", "bitord", "fullord", "bitmap", "bitrank", "names", "namehead", "doclen"} {
		names = append(names, "ir/0/"+b)
	}
	for _, name := range names {
		b, ok := r.Block(name)
		if !ok {
			t.Fatalf("no block %s", name)
		}
		b = append([]byte(nil), b...)
		if edit := edits[name]; edit != nil {
			b = edit(b)
		}
		sw.Block(name, b)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDenseListsChecked: each check format 6 adds refuses what it names,
// with an error that says so, and none panics. Open refuses a list stored
// other than the rule says — a "full" list that does not hold every
// document among them — and the first query that reads a bitmap refuses a
// popcount other than the list's postings, a bit at or past the segment's
// last document and a rank sample that is not the count of the words
// before it, as does every later query that reads it.
func TestDenseListsChecked(t *testing.T) {
	const docs = 1000 // sixteen words, one rank sample, 40 bits in the last word
	s := ruleSegment(t, docs, func(d int) bool { return d%3 == 0 }, func(d int) bool { return d == 7 })
	data := segfileBytes(t, s, 0)
	if _, err := openSegmentsBytes(data, 0); err != nil {
		t.Fatal(err)
	}
	// The record's counts of bitmaps (offset 38) and full lists (42).
	count := func(at int, n uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[at:], n); return b }
	}
	set := func(b []byte) func([]byte) []byte { return func([]byte) []byte { return b } }
	// Ordinals: all 0, bm 1, sp 2.
	for _, c := range []struct {
		name  string
		edits map[string]func([]byte) []byte
		want  string
	}{
		{"a full list of fewer documents", map[string]func([]byte) []byte{
			"ir/0/meta": count(42, 2), "ir/0/fullord": set([]byte{0, 2}),
		}, `term "sp" holds 1 of 1000 docs but is stored full`},
		{"a full list stored sparse", map[string]func([]byte) []byte{
			"ir/0/meta": count(42, 0), "ir/0/fullord": set(nil),
		}, `term "all" holds 1000 of 1000 docs but is stored sparse`},
		{"a sparse list stored as a bitmap", map[string]func([]byte) []byte{
			"ir/0/meta": count(38, 2), "ir/0/bitord": set([]byte{1, 2}), "ir/0/bitrank": set([]byte{171, 0}),
		}, `term "sp" holds 1 of 1000 docs but is stored as a bitmap`},
		{"a list stored twice", map[string]func([]byte) []byte{
			"ir/0/meta": count(42, 2), "ir/0/fullord": set([]byte{0, 1}),
		}, `term "bm" is stored both as a bitmap and full`},
		{"descending ordinals", map[string]func([]byte) []byte{
			"ir/0/meta": count(42, 2), "ir/0/fullord": set([]byte{1, 0}),
		}, "ir: term"},
	} {
		_, err := openSegmentsBytes(rewriteFile(t, data, c.edits), 0)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: open err = %v, want one containing %s", c.name, err, c.want)
		}
	}
	// The bitmap block is bulk, as doc IDs are: it opens, and every query
	// over bm fails at its check.
	words := func(edit func(w []uint64)) func([]byte) []byte {
		return func(b []byte) []byte {
			w, err := segfile.View[uint64](b)
			if err != nil {
				t.Fatal(err)
			}
			edit(w)
			return b
		}
	}
	for _, c := range []struct {
		name  string
		edits map[string]func([]byte) []byte
		want  string
	}{
		{"a popcount other than the postings", map[string]func([]byte) []byte{
			"ir/0/bitmap": words(func(w []uint64) { w[15] &= w[15] - 1 }),
		}, `term "bm" bitmap holds 333 docs, its postings 334`},
		{"a bit past the last document", map[string]func([]byte) []byte{
			"ir/0/bitmap": words(func(w []uint64) { w[15] |= 1 << 40 }),
		}, `term "bm" bitmap names doc 1000 of 1000`},
		{"a rank sample its words disagree with", map[string]func([]byte) []byte{
			"ir/0/bitrank": set([]byte{0}),
		}, `term "bm" rank sample 0 is 0, its words hold 171`},
		{"a bit moved past the rank sample", map[string]func([]byte) []byte{
			"ir/0/bitmap": words(func(w []uint64) { w[0] &= w[0] - 1; w[9] |= 1 << 63 >> bits.LeadingZeros64(^w[9]) }),
		}, `term "bm" rank sample 0 is 171, its words hold 170`},
	} {
		m, err := openSegmentsBytes(rewriteFile(t, data, c.edits), 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, _, err := m.Search("sp all", 3); err != nil {
			t.Fatalf("%s: the undamaged terms fail: %v", c.name, err)
		}
		for i := 0; i < 2; i++ {
			_, _, serr := m.Search("bm all", 3)
			_, _, scerr := m.ScoreQuery("bm")
			for _, err := range []error{serr, scerr} {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: query err = %v, want one containing %s", c.name, err, c.want)
				}
			}
		}
	}
}
