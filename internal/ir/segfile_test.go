package ir

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/segfile"
)

// segfileBytes serializes a built Segments reader.
func segfileBytes(t testing.TB, s *Segments, sig uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSegments(&buf, s, sig); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openSegmentsBytes opens in-memory segfile bytes the way OpenSegmentsFile
// opens the mapping: a container reader handed to OpenSegmentsReader.
func openSegmentsBytes(data []byte, wantSignature uint64) (*Segments, error) {
	r, err := segfile.NewReader(data)
	if err != nil {
		return nil, err
	}
	return OpenSegmentsReader(r, wantSignature)
}

// TestSegfileRoundTripParity is the hard invariant of the zero-copy path:
// a Segments reader reopened from segfile bytes answers every query form
// byte-identically to the heap-built reader it was written from — same
// hits, same float64 score bits, same tie-breaks, same kernel stats — for
// 1-, 2-, and 4-way splits.
func TestSegfileRoundTripParity(t *testing.T) {
	docs := segCorpus(120)
	for _, nseg := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("segs=%d", nseg), func(t *testing.T) {
			heap := buildSegs(t, docs, nseg)
			mapped, err := openSegmentsBytes(segfileBytes(t, heap, 7), 7)
			if err != nil {
				t.Fatal(err)
			}
			if mapped.Docs() != heap.Docs() || mapped.vocb != heap.vocb ||
				mapped.NumSegments() != heap.NumSegments() {
				t.Fatalf("shape: docs %d/%d terms %d/%d segs %d/%d",
					mapped.Docs(), heap.Docs(), mapped.vocb, heap.vocb,
					mapped.NumSegments(), heap.NumSegments())
			}
			for _, q := range segQueries {
				hh, hs, herr := heap.Search(q, 10)
				mh, ms, merr := mapped.Search(q, 10)
				if (herr == nil) != (merr == nil) {
					t.Fatalf("q=%q: err %v vs %v", q, herr, merr)
				}
				if !reflect.DeepEqual(hh, mh) {
					t.Fatalf("q=%q: hits diverge\nheap:   %v\nmapped: %v", q, hh, mh)
				}
				if hs != ms {
					t.Fatalf("q=%q: stats %+v vs %+v", q, hs, ms)
				}
				// Unranked full-score parity across every doc.
				hsc, _, herr2 := heap.ScoreQuery(q)
				msc, _, merr2 := mapped.ScoreQuery(q)
				if (herr2 == nil) != (merr2 == nil) {
					t.Fatalf("q=%q: score err %v vs %v", q, herr2, merr2)
				}
				if herr2 == nil {
					for d := 0; d < heap.Docs(); d++ {
						if hv, mv := hsc.Get(DocID(d)), msc.Get(DocID(d)); hv != mv {
							t.Fatalf("q=%q doc %d: score %v vs %v", q, d, hv, mv)
						}
					}
					hsc.Release()
					msc.Release()
				}
				// Partial scatter legs merge identically.
				if nseg > 1 {
					ords := []int{0, nseg - 1}
					hp, _, _, _ := heap.SearchSegments(q, 10, ords)
					mp, _, _, _ := mapped.SearchSegments(q, 10, ords)
					if !reflect.DeepEqual(hp, mp) {
						t.Fatalf("q=%q partial: %v vs %v", q, hp, mp)
					}
				}
			}
			// Safe top-N (the mapped impact-ordered lists) on each part.
			for i := 0; i < nseg; i++ {
				for _, q := range segQueries {
					hn, _, herr := heap.segs[i].SearchTopN(q, 5, TopNOptions{Fragments: 4})
					mn, _, merr := mapped.segs[i].SearchTopN(q, 5, TopNOptions{Fragments: 4})
					if (herr == nil) != (merr == nil) || !reflect.DeepEqual(hn, mn) {
						t.Fatalf("part %d q=%q topN: %v/%v vs %v/%v", i, q, hn, herr, mn, merr)
					}
				}
			}
			// Doc names and lengths of every part.
			for i, p := range heap.segs {
				m := mapped.segs[i]
				for d := 0; d < p.Docs(); d++ {
					if hn, mn := p.names.At(d), m.names.At(d); hn != mn || p.doclen.at(d) != m.doclen.at(d) {
						t.Fatalf("part %d doc %d: name %q len %d vs %q len %d", i, d, hn, p.doclen.at(d), mn, m.doclen.at(d))
					}
				}
			}
		})
	}
}

func TestSegfileWriteDeterministic(t *testing.T) {
	s := buildSegs(t, segCorpus(60), 3)
	a := segfileBytes(t, s, 1)
	b := segfileBytes(t, s, 1)
	if !bytes.Equal(a, b) {
		t.Fatal("two writes of the same reader produced different bytes")
	}
	// Golden: the bytes format 6 writes for this corpus. It was re-recorded
	// once for format 3 (narrowest-width columns), whose fields equal format
	// 2's field by field (dlse.TestTextFormat3EqualsFormat2), once for
	// format 4 (a code per posting into its term's book of (TF, impact)
	// pairs), whose postings read back through the books equal format 3's
	// (dlse.TestTextFormat4EqualsFormat3), and once for format 5 (no idf
	// block), whose every other field equals format 4's
	// (dlse.TestTextFormat5EqualsFormat4), once for format 6 (dense lists
	// as bitmaps or as nothing), whose postings read back through the
	// bitmaps equal format 5's (dlse.TestTextFormat6EqualsFormat5), and once
	// for format 7 (a front-coded dictionary and front-coded names), whose
	// terms and names read back equal format 6's
	// (dlse.TestTextFormat7EqualsFormat6). The layout may not drift
	// silently: a cache written by an older build must keep opening, or be
	// refused by version and rebuilt.
	const golden = "7aa8c6d882483f71b95988128f4dbb5ac99235e8502e37bba2db890b2932bb52"
	if got := fmt.Sprintf("%x", sha256.Sum256(a)); got != golden {
		t.Fatalf("text segfile bytes changed: sha256 %s, want %s", got, golden)
	}
}

func TestSegfileSignature(t *testing.T) {
	s := buildSegs(t, segCorpus(20), 2)
	data := segfileBytes(t, s, 42)
	if _, err := openSegmentsBytes(data, 42); err != nil {
		t.Fatalf("matching signature rejected: %v", err)
	}
	if _, err := openSegmentsBytes(data, 43); err == nil {
		t.Fatal("signature mismatch accepted")
	}
	if _, err := openSegmentsBytes(data, 0); err != nil {
		t.Fatalf("signature opt-out rejected: %v", err)
	}
}

func TestSegfileOpenFile(t *testing.T) {
	s := buildSegs(t, segCorpus(40), 2)
	data := segfileBytes(t, s, 0)
	path := filepath.Join(t.TempDir(), "text.segf")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, closer, err := OpenSegmentsFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	hh, _, _ := s.Search("w0 w1", 10)
	mh, _, _ := m.Search("w0 w1", 10)
	if !reflect.DeepEqual(hh, mh) {
		t.Fatalf("file-backed hits diverge: %v vs %v", hh, mh)
	}
	// Lookup parity: the mapped term table finds every term of the heap-built
	// one at the same ordinal, with the same postings, impacts and idf, and
	// places the absent terms before the first, after the last and between
	// neighbours where the heap-built one does.
	for i, hx := range s.segs {
		mx := m.segs[i]
		n := hx.dict.Len()
		if n == 0 || mx.dict.Len() != n {
			t.Fatalf("segment %d: %d mapped terms, %d heap-built", i, mx.dict.Len(), n)
		}
		type probe struct {
			term  string
			at    int
			found bool
		}
		probes := []probe{{"", 0, false}, {"\x00", 0, false}, {"\xff", n, false}}
		for o := 0; o < n; o++ {
			term := hx.dict.At(o)
			probes = append(probes, probe{term, o, true}, probe{term + "\x00", o + 1, false})
		}
		for _, p := range probes {
			ho, hok := hx.lookup(p.term)
			mo, mok := mx.lookup(p.term)
			if ho != p.at || hok != p.found || mo != p.at || mok != p.found {
				t.Fatalf("segment %d lookup(%q): heap (%d, %v), mapped (%d, %v), want (%d, %v)",
					i, p.term, ho, hok, mo, mok, p.at, p.found)
			}
			if !p.found {
				continue
			}
			hp, himp := hx.postings(ho)
			mp, mimp := mx.postings(mo)
			if !reflect.DeepEqual(hp, mp) || !reflect.DeepEqual(himp, mimp) {
				t.Fatalf("segment %d term %q: postings or impacts diverge", i, p.term)
			}
		}
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSegfileEmptySegment(t *testing.T) {
	// One populated part plus one empty part: the empty segment must round-trip.
	a := NewIndex()
	if _, err := a.Add("only", "alpha beta gamma"); err != nil {
		t.Fatal(err)
	}
	b := NewIndex()
	segs, err := NewSegments([]*Index{a, b})
	if err != nil {
		t.Fatal(err)
	}
	m, err := openSegmentsBytes(segfileBytes(t, segs, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	hh, _, _ := segs.Search("beta", 10)
	mh, _, _ := m.Search("beta", 10)
	if !reflect.DeepEqual(hh, mh) {
		t.Fatalf("hits diverge: %v vs %v", hh, mh)
	}
}

// TestSegfileHostileBytes drives targeted corruptions through the open
// path; FuzzSegfileOpen explores the rest of the space.
func TestSegfileHostileBytes(t *testing.T) {
	s := buildSegs(t, segCorpus(30), 2)
	data := segfileBytes(t, s, 0)
	for _, n := range []int{0, 8, 80, len(data) / 2, len(data) - 1} {
		if _, err := openSegmentsBytes(data[:n], 0); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	// Structural blocks are verified at open: corrupting any byte of the
	// dictionary or its offset tables must be rejected.
	for i := 0; i < len(data); i += 7 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xA5
		// Must never panic; may legitimately succeed when the flip lands in
		// padding or a lazily-verified bulk block.
		_, _ = openSegmentsBytes(mut, 0)
	}
	// Books are structural: open refuses one no freeze writes. Each edit
	// keeps its block's checksum valid, so only the check of its values can
	// refuse it.
	set := func(b []byte) func([]byte) []byte { return func([]byte) []byte { return b } }
	imps := func(vs ...float32) func([]byte) []byte { return set(segfile.Bytes(vs)) }
	for _, c := range []struct {
		name, block string
		edit        func([]byte) []byte
		want        string
	}{
		{"descending book offsets", "ir/0/bookoff", set([]byte{0, 1, 0}), `"w1" book [1, 0) descends`},
		{"postings without a book", "ir/0/bookoff", set([]byte{0, 0, 2}), `"w0" has 0 book entries for 1 postings`},
		{"more entries than postings", "ir/0/bookoff", set([]byte{0, 2, 2}), `"w0" has 2 book entries for 1 postings`},
		{"book TF 0", "ir/0/booktf", set([]byte{1, 0}), "TF 0"},
		{"NaN impact", "ir/0/bookimp", imps(1, float32(math.NaN())), "NaN"},
		{"infinite impact", "ir/0/bookimp", imps(float32(math.Inf(1)), 1), "+Inf"},
		{"negative impact", "ir/0/bookimp", imps(1, -0.5), "-0.5"},
	} {
		_, err := openSegmentsBytes(handFile(t, 1, map[string]func([]byte) []byte{c.block: c.edit}, "w0", "w1"), 0)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: open err = %v, want one containing %s", c.name, err, c.want)
		}
	}
	// Codes are bulk, like doc IDs: a code past its term's book opens, and
	// fails every query over the term with an error naming it and its
	// segment, at each code width, instead of panicking.
	for _, c := range []struct {
		name  string
		edits map[string]func([]byte) []byte
	}{
		{"u8", map[string]func([]byte) []byte{"ir/0/postcode": set([]byte{0, 1})}},
		{"u16", map[string]func([]byte) []byte{
			"ir/0/postcode": set([]byte{0, 0, 0, 1}), // w1's code is 256
			"ir/0/meta":     func(b []byte) []byte { b[34] = 2; return b },
		}},
	} {
		m, err := openSegmentsBytes(handFile(t, 1, c.edits, "w0", "w1"), 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, _, err := m.Search("w0", 10); err != nil {
			t.Fatalf("%s: the undamaged term fails: %v", c.name, err)
		}
		_, _, serr := m.Search("w0 w1", 10)
		_, _, _, sserr := m.SearchScores("w1", 10)
		_, _, scerr := m.ScoreSegments("w1", nil)
		for _, err := range []error{serr, sserr, scerr} {
			if err == nil || !strings.Contains(err.Error(), `segment 0: ir: term "w1" posting 0 has code`) {
				t.Errorf("%s: err = %v, want one naming segment 0 and term w1", c.name, err)
			}
		}
	}
}

// rareCorpus is segCorpus(n) with the term r<i/per> added to document i:
// lists of per documents, sparse in a segment of more than 16·per, the
// first terms of its dictionary.
func rareCorpus(n, per int) []string {
	docs := segCorpus(n)
	for i := range docs {
		docs[i] += fmt.Sprintf(" r%d", i/per)
	}
	return docs
}

// TestCorruptPostingDocFailsSearch: a doc ID in a mapped posting block that
// lies outside its segment opens (bulk blocks are not checksummed) but fails
// every scoring entry point with an error naming the segment, instead of
// panicking a scatter goroutine — at each doc-ID width, including a u16 ID
// that is past the segment's documents but below 65,536.
func TestCorruptPostingDocFailsSearch(t *testing.T) {
	for _, c := range []struct {
		name  string
		docs  int
		width uint8
		bad   []byte // the first posting's doc ID, little-endian
	}{
		{"u8", 40, 1, []byte{0xFF}},
		{"u16", 600, 2, []byte{0xFF, 0xFF}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := buildSegs(t, rareCorpus(c.docs, 1), 2)
			data := segfileBytes(t, s, 0)
			r, err := segfile.NewReader(data)
			if err != nil {
				t.Fatal(err)
			}
			post, ok := r.Block("ir/1/postdoc") // aliases data
			if !ok || len(post) < len(c.bad) {
				t.Fatal("no posting block")
			}
			copy(post, c.bad)
			m, err := OpenSegmentsReader(r, 0)
			if err != nil {
				t.Fatal(err)
			}
			if w := m.segs[1].docs.width(); w != c.width {
				t.Fatalf("segment 1 of %d docs stores %d-byte doc IDs, want %d", m.segs[1].Docs(), w, c.width)
			}
			// The segment's first term holds the first sparse list.
			first := m.segs[1].dict.At(0)
			if l := m.segs[1].list(0); l.kind != sparseList || l.at != 0 {
				t.Fatalf("segment 1's first term %q is stored %s", first, l.kind)
			}
			q := first + " w0 w1 w2 w3 w4 w5 w6 w7 w8 w9"
			check := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), "segment 1") {
					t.Fatalf("%s: err = %v, want one naming segment 1", what, err)
				}
			}
			_, _, _, err = m.SearchSegments(q, 10, nil)
			check("SearchSegments", err)
			_, _, _, err = m.SearchScores(q, 10)
			check("SearchScores", err)
			_, _, err = m.ScoreSegments(q, nil)
			check("ScoreSegments", err)
			// The undamaged segment still answers alone.
			if _, _, _, err := m.SearchSegments(q, 10, []int{0}); err != nil {
				t.Fatalf("segment 0: %v", err)
			}
		})
	}
}

// TestCorruptPostingOrderFailsSearch: the top-k kernel gallops over a
// sparse list's doc IDs, so a mapped list whose doc IDs descend opens but
// fails every scoring entry point that reads it, with an error naming the
// segment, the term and the posting — the first time and every time after.
func TestCorruptPostingOrderFailsSearch(t *testing.T) {
	s := buildSegs(t, rareCorpus(100, 3), 2)
	data := segfileBytes(t, s, 0)
	r, err := segfile.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	post, ok := r.Block("ir/0/postdoc") // aliases data
	if !ok || len(post) < 2 || post[0] >= post[1] {
		t.Fatal("no ascending posting block")
	}
	post[0], post[1] = post[1], post[0]
	m, err := OpenSegmentsReader(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	term := m.segs[0].dict.At(0)
	if l := m.segs[0].list(0); l.kind != sparseList || l.hi-l.lo < 2 {
		t.Fatalf("segment 0's first term %q is stored %s with %d postings", term, l.kind, l.hi-l.lo)
	}
	want := fmt.Sprintf("segment 0: ir: term %q posting 1 names doc %d after doc %d", term, post[1], post[0])
	for i := 0; i < 2; i++ {
		_, _, err1 := m.Search(term, 1)
		_, _, _, err2 := m.SearchScores(term, 0)
		_, _, err3 := m.ScoreSegments(term, []int{0})
		_, _, err4 := m.ScoreQuery(term)
		for _, err := range []error{err1, err2, err3, err4} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want one containing %q", err, want)
			}
		}
	}
	if _, _, err := m.ScoreSegments(term, []int{1}); err != nil {
		t.Fatalf("the undamaged segment: %v", err)
	}
}

// TestSegfileColumnWidths: each integer column is stored at the narrowest
// width holding its largest value, and segments on either side of each
// boundary — 65,536 and 65,537 documents (the largest doc ID 65,535 and
// 65,536), a book TF of 255 and of 256 — answer identically heap-built and
// mapped. (TestKernelMatchesFlatImpacts crosses the code column's u8/u16
// boundary.)
func TestSegfileColumnWidths(t *testing.T) {
	parts := []*Index{NewIndex(), NewIndex()}
	for i, n := range []int{65536, 65537} {
		for d := 0; d < n; d++ {
			text := fmt.Sprintf("w%d x%d", d%50, d%7)
			switch d {
			case 5:
				text += strings.Repeat(" hot", 255+i) // TF 255, then 256
			case n - 1:
				text += " last"
			}
			if _, err := parts[i].Add(fmt.Sprintf("p%d-%d", i, d), text); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap, err := NewSegments(parts)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := openSegmentsBytes(segfileBytes(t, heap, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	type widths struct{ off, doc, code, len, bookOff, tf uint8 }
	for i, want := range []widths{{4, 2, 1, 2, 1, 1}, {4, 4, 1, 2, 1, 2}} {
		for _, ix := range []*Index{heap.segs[i], mapped.segs[i]} {
			got := widths{ix.postOff.width(), ix.docs.width(), ix.codes.width(), ix.doclen.width(), ix.bookOff.width(), ix.bookTF.width()}
			if got != want {
				t.Fatalf("segment %d: widths (off, doc, code, len, bookOff, tf) %v, want %v", i, got, want)
			}
		}
	}
	for _, q := range []string{"last", "hot", "w3 x4", "w49 last hot", "x0"} {
		hh, hs, herr := heap.Search(q, 20)
		mh, ms, merr := mapped.Search(q, 20)
		if herr != nil || merr != nil || !reflect.DeepEqual(hh, mh) || hs != ms {
			t.Fatalf("q=%q: heap %v %+v %v, mapped %v %+v %v", q, hh, hs, herr, mh, ms, merr)
		}
		if len(hh) == 0 {
			t.Fatalf("q=%q: no hits", q)
		}
		for i := range heap.segs {
			hn, _, herr := heap.segs[i].SearchTopN(q, 5, TopNOptions{})
			mn, _, merr := mapped.segs[i].SearchTopN(q, 5, TopNOptions{})
			if herr != nil || merr != nil || !reflect.DeepEqual(hn, mn) {
				t.Fatalf("segment %d q=%q topN: %v/%v vs %v/%v", i, q, hn, herr, mn, merr)
			}
		}
	}
	// The boundary documents are the ones the queries reach.
	last, _, _ := mapped.Search("last", 0)
	if len(last) != 2 || last[0].Doc != 65535 || last[1].Doc != 65536+65536 {
		t.Fatalf("last: %v, want global docs 65535 and 131072", last)
	}
	for i, name := range []string{"p0-5", "p1-5"} {
		o, ok := mapped.segs[i].lookup("hot")
		if !ok {
			t.Fatalf("segment %d has no term hot", i)
		}
		post, _ := mapped.segs[i].postings(o)
		if len(post) != 1 || post[0].TF != int32(255+i) || mapped.segs[i].names.At(int(post[0].Doc)) != name {
			t.Fatalf("segment %d hot postings %v", i, post)
		}
	}
}

// fcEntry is one entry of a front-coded block as a test writes it by hand:
// its shared-prefix length and its suffix.
type fcEntry struct {
	p int
	s string
}

// fcBlock encodes entries as a front-coded block, whatever they share.
func fcBlock(entries ...fcEntry) []byte {
	var b []byte
	for _, e := range entries {
		b = binary.AppendUvarint(b, uint64(e.p))
		b = binary.AppendUvarint(b, uint64(len(e.s)))
		b = append(b, e.s...)
	}
	return b
}

// TestFrontCodedTablesChecked: format 7's opener refuses a front-coded
// dictionary or name table that its lookups and naming could not decode,
// with an error that names the block: an entry sharing more bytes than the
// entry before it holds, a restart head that shares any, head offsets that
// descend or run past the block, a dictionary that decodes out of order, with
// a repeat or with an empty term, and a name table of other than the
// segment's documents. Each edit keeps its block's checksum valid.
func TestFrontCodedTablesChecked(t *testing.T) {
	terms := make([]string, 33) // three restart blocks
	for i := range terms {
		terms[i] = fmt.Sprintf("w%02d", i)
	}
	if _, err := openSegmentsBytes(handFile(t, 1, nil, terms...), 0); err != nil {
		t.Fatalf("untampered file refused: %v", err)
	}
	set := func(b []byte) func([]byte) []byte { return func([]byte) []byte { return b } }
	// w00 … w32 as the writer codes them: every entry shares "w" and, inside
	// a run of ten, "w0", "w1", "w2" or "w3"; every restart head nothing.
	entries := func() []fcEntry {
		out := make([]fcEntry, len(terms))
		for i, term := range terms {
			switch {
			case i%restartEvery == 0:
				out[i] = fcEntry{0, term}
			case i%10 == 0:
				out[i] = fcEntry{1, term[1:]}
			default:
				out[i] = fcEntry{2, term[2:]}
			}
		}
		return out
	}
	if got, want := fcBlock(entries()...), handFile(t, 1, nil, terms...); !bytes.Contains(want, got) {
		t.Fatal("fcBlock does not code the terms as the writer does")
	}
	edited := func(edit func(e []fcEntry)) []byte {
		e := entries()
		edit(e)
		return fcBlock(e...)
	}
	// The writer's head offsets, and a set of them edited.
	var fb frontBuilder
	for _, term := range terms {
		fb.add(term)
	}
	h := fb.heads
	heads := func(edit func(h []byte)) func([]byte) []byte {
		b := make([]byte, len(h))
		for i, v := range h {
			b[i] = byte(v)
		}
		edit(b)
		return set(b)
	}
	for _, c := range []struct {
		name  string
		terms []string
		edits map[string]func([]byte) []byte
		want  string
	}{
		{"a prefix longer than the entry before", terms, map[string]func([]byte) []byte{
			"ir/0/terms": set(edited(func(e []fcEntry) { e[1] = fcEntry{4, ""} })),
		}, `block "ir/0/terms": entry 1 shares 4 bytes of a 3-byte entry`},
		{"a restart head that shares", terms, map[string]func([]byte) []byte{
			"ir/0/terms": set(edited(func(e []fcEntry) { e[2*restartEvery] = fcEntry{1, e[2*restartEvery].s[1:]} })),
		}, `block "ir/0/terms": restart head 2 shares 1 bytes`},
		{"head offsets that descend", terms, map[string]func([]byte) []byte{
			"ir/0/termhead": heads(func(b []byte) { b[1], b[2] = b[2], b[1] }),
		}, fmt.Sprintf(`block "ir/0/termhead": restart head 1 at byte %d`, h[2])},
		{"a head past the block", terms, map[string]func([]byte) []byte{
			"ir/0/termhead": heads(func(b []byte) { b[len(b)-1] = 250 }),
		}, fmt.Sprintf(`block "ir/0/termhead": restart head %d at byte 250`, len(h)-1)},
		{"a dictionary out of order", []string{"w1", "w0"}, nil, `block "ir/0/terms": entry 1 ("w0") breaks the sorted dictionary`},
		{"a repeated term", []string{"w0", "w0"}, nil, `block "ir/0/terms": entry 1 ("w0") breaks the sorted dictionary`},
		{"an empty term", []string{"", "w0"}, nil, `block "ir/0/terms": entry 0 ("") breaks the sorted dictionary`},
		{"a term that decodes out of order", terms, map[string]func([]byte) []byte{
			"ir/0/terms": set(edited(func(e []fcEntry) { e[2] = fcEntry{1, "00"} })),
		}, `block "ir/0/terms": entry 2 ("w00") breaks the sorted dictionary`},
		{"a name more than the documents", []string{"w0"}, map[string]func([]byte) []byte{
			"ir/0/names": func(b []byte) []byte { return append(b, fcBlock(fcEntry{3, "x"})...) },
		}, `block "ir/0/names" holds 3 bytes past its 16 entries`},
		{"a name fewer than the documents", []string{"w0"}, map[string]func([]byte) []byte{
			"ir/0/names": func(b []byte) []byte { return b[:len(b)-3] }, // doc15 is 4, 1, "5"
		}, `block "ir/0/names": entry 15 at byte`},
		{"a name sharing more than the name before", []string{"w0"}, map[string]func([]byte) []byte{
			"ir/0/names": func(b []byte) []byte { b[len(b)-3] = 6; return b },
		}, `block "ir/0/names": entry 15 shares 6 bytes of a 5-byte entry`},
	} {
		_, err := openSegmentsBytes(handFile(t, 1, c.edits, c.terms...), 0)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: open err = %v, want one containing %s", c.name, err, c.want)
		}
	}
}

// TestSegfileColumnLengthsChecked: a file whose columns hold a different
// number of values than its meta record counts, or values of a width other
// than the one the record names, is refused at open.
func TestSegfileColumnLengthsChecked(t *testing.T) {
	if _, err := openSegmentsBytes(handFile(t, 2, nil, "w0", "w1"), 0); err != nil {
		t.Fatalf("untampered file refused: %v", err)
	}
	short := func(w int) func([]byte) []byte { return func(b []byte) []byte { return b[:len(b)-w] } }
	long := func(w int) func([]byte) []byte { return func(b []byte) []byte { return append(b, make([]byte, w)...) } }
	metaWidth := func(at int, w byte) func([]byte) []byte {
		return func(b []byte) []byte { b[at] = w; return b }
	}
	for _, c := range []struct {
		block string
		edit  func([]byte) []byte
	}{
		{"ir/0/postdoc", short(2)},
		{"ir/0/postdoc", long(2)},
		{"ir/0/postdoc", func(b []byte) []byte { return append(b, b...) }}, // twice the width
		{"ir/0/postcode", short(1)},
		{"ir/0/postcode", long(1)},
		{"ir/0/bookoff", short(1)},
		{"ir/0/booktf", long(1)},
		{"ir/0/bookimp", short(4)},
		{"ir/0/postoff", short(1)},
		{"ir/0/doclen", long(1)},
		{"ir/0/meta", metaWidth(33, 1)}, // doc width 1 under a 2-byte column
		{"ir/0/meta", metaWidth(33, 3)}, // no such width
		{"ir/0/meta", metaWidth(34, 0)}, // code width 0
		{"ir/0/meta", metaWidth(37, 0)}, // TF width 0
	} {
		edits := map[string]func([]byte) []byte{c.block: c.edit}
		if _, err := openSegmentsBytes(handFile(t, 2, edits, "w0", "w1"), 0); err == nil {
			t.Errorf("%s edited: opened", c.block)
		}
	}
	// Doc IDs are at most 4 bytes, even when the column and the record agree.
	if _, err := openSegmentsBytes(handFile(t, 8, nil, "w0", "w1"), 0); err == nil {
		t.Error("a u64 doc-ID column opened")
	}
}

// FuzzSegfileOpen asserts the open path never panics or over-allocates on
// hostile bytes: truncations, overflowing offsets, bad checksums, shuffled
// dictionaries, columns of every width, codes past their books. Seeded with
// real written segment files and hand-written ones at each doc-ID width.
func FuzzSegfileOpen(f *testing.F) {
	docs := segCorpus(25)
	parts := make([]*Index, 2)
	for i := range parts {
		parts[i] = NewIndex()
	}
	for i, d := range docs {
		parts[i%2].Add(fmt.Sprintf("doc-%d", i), d)
	}
	segs, err := NewSegments(parts)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSegments(&buf, segs, 99); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(buf.Bytes())/2])
	f.Add([]byte{})
	// Well-formed files whose dictionary a binary search cannot use: an empty
	// term, terms out of order, a term twice. The open must refuse them.
	f.Add(dictFile(f, "w0", "w1"))
	for _, bad := range [][]string{{"", "w0"}, {"w1", "w0"}, {"w0", "w0"}} {
		f.Add(dictFile(f, bad...))
	}
	// A written file whose second segment stores u16 doc IDs, and
	// hand-written files at u16 and u32. Format 7: that segment holds a full
	// list (zall), bitmap lists (w0-w2) and sparse ones (r0-r29), and its
	// dictionary and 300 names span restart blocks.
	wide := NewIndex()
	for d := 0; d < 300; d++ {
		wide.Add(fmt.Sprintf("d%d", d), fmt.Sprintf("zall w%d r%d", d%3, d/10))
	}
	narrow := NewIndex()
	narrow.Add("only", "w0 w1")
	segs, err = NewSegments([]*Index{narrow, wide})
	if err != nil {
		f.Fatal(err)
	}
	if w, nb, nf := segs.segs[1].docs.width(), segs.segs[1].bitOrd.len(), segs.segs[1].fullOrd.len(); w != 2 || nb != 3 || nf != 1 {
		f.Fatalf("300-document segment stores %d-byte doc IDs, %d bitmaps and %d full lists", w, nb, nf)
	}
	f.Add(segfileBytes(f, segs, 0))
	f.Add(handFile(f, 2, nil, "w0", "w1"))
	f.Add(handFile(f, 4, nil, "w0", "w1"))
	// Format 4's books: a written file whose u16 codes name a book of more
	// than 256 pairs and whose book TFs pass 255, a code past its term's
	// book, and book offsets that descend.
	books := NewIndex()
	for d := 0; d < 300; d++ {
		books.Add(fmt.Sprintf("d%d", d), "w0"+strings.Repeat(" w1", d)+strings.Repeat(" w2", 256*(d%2)))
	}
	segs, err = NewSegments([]*Index{books})
	if err != nil {
		f.Fatal(err)
	}
	if cw, tw := segs.segs[0].codes.width(), segs.segs[0].bookTF.width(); cw != 2 || tw != 2 {
		f.Fatalf("code width %d, book TF width %d, want 2 and 2", cw, tw)
	}
	f.Add(segfileBytes(f, segs, 0))
	set := func(b []byte) func([]byte) []byte { return func([]byte) []byte { return b } }
	f.Add(handFile(f, 1, map[string]func([]byte) []byte{"ir/0/postcode": set([]byte{0, 1})}, "w0", "w1"))
	f.Add(handFile(f, 1, map[string]func([]byte) []byte{"ir/0/bookoff": set([]byte{0, 1, 0})}, "w0", "w1"))
	// Format 7's front-coded tables, damaged: an entry sharing more than the
	// entry before holds, a restart head that shares, and a name table one
	// name short.
	f.Add(handFile(f, 1, map[string]func([]byte) []byte{"ir/0/terms": set(fcBlock(fcEntry{0, "w0"}, fcEntry{3, "1"}))}, "w0", "w1"))
	f.Add(handFile(f, 1, map[string]func([]byte) []byte{"ir/0/terms": set(fcBlock(fcEntry{1, "w0"}, fcEntry{1, "1"}))}, "w0", "w1"))
	f.Add(handFile(f, 1, map[string]func([]byte) []byte{"ir/0/names": func(b []byte) []byte { return b[:len(b)-3] }}, "w0", "w1"))
	// Format 5 reads a list by galloping over its doc IDs, which a query
	// verifies first: a written file whose first list descends, and one
	// whose first list names a doc past its segment. Both open; their
	// queries must fail, not panic.
	segs = buildSegs(f, segCorpus(40), 2)
	for _, bad := range [][]byte{{9, 3}, {200}} {
		data := segfileBytes(f, segs, 0)
		r, err := segfile.NewReader(data)
		if err != nil {
			f.Fatal(err)
		}
		post, ok := r.Block("ir/0/postdoc") // aliases data
		if !ok {
			f.Fatal("no posting block")
		}
		copy(post, bad)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := openSegmentsBytes(data, 0)
		if err != nil {
			return
		}
		// A successfully opened file must hold internally consistent
		// metadata — a sorted dictionary of distinct non-empty terms — and
		// one search over every term it holds must answer or fail, never
		// panic.
		var q strings.Builder
		for i, ix := range s.segs {
			_ = ix.Docs()
			for o := 0; o < ix.dict.Len(); o++ {
				term := ix.dict.At(o)
				if term == "" || o > 0 && term <= ix.dict.At(o-1) {
					t.Fatalf("segment %d opened with term %d (%q) out of order", i, o, term)
				}
				q.WriteString(term)
				q.WriteByte(' ')
			}
		}
		_, _, _ = s.Search(q.String()+"w0", 10)
		_, _, _ = s.Search(q.String()+"w0", 1)
		if sc, _, err := s.ScoreSegments(q.String()+"w0", nil); err == nil {
			sc.Ranks([]Hit{{Doc: 0}, {Doc: 1}})
			sc.Release()
		}
	})
}

// dictFile writes a one-segment text segfile of 16 documents by hand, with
// the given dictionary in the given order, one posting per term on the
// first document: what WriteSegments writes when the terms are sorted and
// distinct. At one document in 16 every list is sparse.
func dictFile(t testing.TB, terms ...string) []byte { return handFile(t, 1, nil, terms...) }

// handFile is dictFile with the doc-ID column stored docWidth bytes wide,
// and each block named in edits rewritten by its function before it is
// written (its checksum is the edited bytes'). Each term's book holds its
// one posting's pair, (TF 1, impact 1).
func handFile(t testing.TB, docWidth uint8, edits map[string]func([]byte) []byte, terms ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := segfile.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	block := func(name string, b []byte) {
		if edit := edits[name]; edit != nil {
			b = edit(append([]byte(nil), b...))
		}
		sw.Block(name, b)
	}
	record := func(name string, v any) {
		var rec bytes.Buffer
		if err := binary.Write(&rec, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
		block(name, rec.Bytes())
	}
	const D = 16
	T := len(terms)
	postOff := newColumn(T+1, uint64(T))
	docs := map[uint8]column{1: {make([]uint8, T)}, 2: {make([]uint16, T)}, 4: {make([]uint32, T)}, 8: {make([]uint64, T)}}[docWidth]
	codes := newColumn(T, 0)
	bookTF := newColumn(T, 1)
	bookImp := make([]float32, T)
	for o := range terms {
		bookImp[o] = 1
		postOff.set(o+1, uint64(o+1))
		bookTF.set(o, 1)
	}
	var dict, names frontBuilder
	for _, term := range terms {
		dict.add(term)
	}
	for d := 0; d < D; d++ {
		names.add(fmt.Sprintf("doc%d", d))
	}
	dt, nt := dict.table(), names.table()
	record("ir/meta", fileMeta{irFormatVersion, 1, D, uint64(T), 0})
	record("ir/0/meta", segMeta{D, uint64(T), uint32(T), uint64(T), uint64(T), postOff.width(), docWidth, 1, 1, postOff.width(), 1, 0, 0, 1, 1, 1, dt.heads.width(), nt.heads.width()})
	block("ir/0/terms", dt.data)
	block("ir/0/termhead", dt.heads.bytes())
	block("ir/0/postoff", postOff.bytes())
	block("ir/0/bookoff", postOff.bytes()) // one book entry per term, as one posting
	block("ir/0/booktf", bookTF.bytes())
	block("ir/0/bookimp", segfile.Bytes(bookImp))
	block("ir/0/postdoc", docs.bytes())
	block("ir/0/postcode", codes.bytes())
	block("ir/0/bitord", nil)
	block("ir/0/fullord", nil)
	block("ir/0/bitmap", nil)
	block("ir/0/bitrank", nil)
	block("ir/0/names", nt.data)
	block("ir/0/namehead", nt.heads.bytes())
	doclen := make([]byte, D)
	doclen[0] = byte(T)
	block("ir/0/doclen", doclen)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
