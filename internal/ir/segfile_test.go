package ir

import (
	"bytes"
	"crypto/sha256"
	"fmt"
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
			// Boolean retrieval and safe top-N (the mapped impact-ordered
			// lists) on each part.
			for i := 0; i < nseg; i++ {
				for _, q := range segQueries {
					hn, _, herr := heap.segs[i].SearchTopN(q, 5, TopNOptions{Fragments: 4})
					mn, _, merr := mapped.segs[i].SearchTopN(q, 5, TopNOptions{Fragments: 4})
					if (herr == nil) != (merr == nil) || !reflect.DeepEqual(hn, mn) {
						t.Fatalf("part %d q=%q topN: %v/%v vs %v/%v", i, q, hn, herr, mn, merr)
					}
				}
				hb, herr := heap.segs[i].SearchBoolean("w0 w1")
				mb, merr := mapped.segs[i].SearchBoolean("w0 w1")
				if (herr == nil) != (merr == nil) || !reflect.DeepEqual(hb, mb) {
					t.Fatalf("part %d boolean: %v/%v vs %v/%v", i, hb, herr, mb, merr)
				}
			}
			// Doc names and lengths of every part.
			for i, p := range heap.segs {
				m := mapped.segs[i]
				for d := 0; d < p.Docs(); d++ {
					if hn, mn := p.names.At(d), m.names.At(d); hn != mn || p.doclen[d] != m.doclen[d] {
						t.Fatalf("part %d doc %d: name %q len %d vs %q len %d", i, d, hn, p.doclen[d], mn, m.doclen[d])
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
	// Golden: the bytes format 2 writes for this corpus (the format-1 bytes
	// less the two impact-ordered blocks, with the version bumped). The
	// layout may not drift silently: a cache written by an older build must
	// keep opening, or be refused by version and rebuilt.
	const golden = "1d00885df8c05366c27a78919657ebf0563433dc0c5eb063b0e662e520aeb935"
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
			if !reflect.DeepEqual(hp, mp) || !reflect.DeepEqual(himp, mimp) || hx.termIdf[ho] != mx.termIdf[mo] {
				t.Fatalf("segment %d term %q: postings, impacts or idf diverge", i, p.term)
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
}

// TestCorruptPostingDocFailsSearch: a doc ID in a mapped posting block that
// lies outside its segment opens (bulk blocks are not checksummed) but fails
// every scoring entry point with an error naming the segment, instead of
// panicking a scatter goroutine.
func TestCorruptPostingDocFailsSearch(t *testing.T) {
	s := buildSegs(t, segCorpus(40), 2)
	data := segfileBytes(t, s, 0)
	r, err := segfile.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	post, ok := r.Block("ir/1/docpost") // aliases data
	if !ok || len(post) < 8 {
		t.Fatal("no posting block")
	}
	post[3] = 0x7F // the first posting's Doc, little-endian: now 0x7F______
	m, err := OpenSegmentsReader(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	const q = "w0 w1 w2 w3 w4 w5 w6 w7 w8 w9"
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
}

// FuzzSegfileOpen asserts the open path never panics or over-allocates on
// hostile bytes: truncations, overflowing offsets, bad checksums, shuffled
// dictionaries. Seeded with a real written segment file.
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
	})
}

// dictFile writes a one-segment text segfile of one document by hand, with
// the given dictionary in the given order, one posting per term: what
// WriteSegments writes when the terms are sorted and distinct.
func dictFile(t testing.TB, terms ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := segfile.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	T := len(terms)
	idf := make([]float64, T)
	postOff := make([]uint64, T+1)
	post := make([]Posting, T)
	imp := make([]float32, T)
	for o := range terms {
		idf[o], postOff[o+1], post[o], imp[o] = 1, uint64(o+1), Posting{Doc: 0, TF: 1}, 1
	}
	sw.Record("ir/meta", fileMeta{irFormatVersion, 1, 1, uint64(T), 0})
	sw.Record("ir/0/meta", segMeta{1, uint64(T), uint32(T), uint64(T)})
	sw.Table("ir/0/terms", "ir/0/termoff", segfile.NewTable(T, func(o int) string { return terms[o] }))
	sw.Block("ir/0/idf", segfile.Bytes(idf))
	sw.Block("ir/0/postoff", segfile.Bytes(postOff))
	sw.Block("ir/0/docpost", segfile.Bytes(post))
	sw.Block("ir/0/docimp", segfile.Bytes(imp))
	sw.Table("ir/0/names", "ir/0/nameoff", segfile.NewTable(1, func(int) string { return "doc" }))
	sw.Block("ir/0/doclen", segfile.Bytes([]int32{int32(T)}))
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
