package dlse

// The text-segfile cache: a cold build writes the cache, a warm start
// memory-maps it, and both engines answer every query form byte-identically.
// A stale cache (different corpus or partition count) is rebuilt, never
// served.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/segfile"
	"repro/internal/webspace"
)

func cacheSite(t *testing.T, seed int64) *webspace.Site {
	t.Helper()
	site, err := webspace.GenerateAusOpen(webspace.SiteConfig{
		Players: 25, YearStart: 1999, YearEnd: 2001, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func TestTextSegfileCacheParity(t *testing.T) {
	site := cacheSite(t, 3)
	path := filepath.Join(t.TempDir(), "text.segf")
	cold, err := NewSegmented(site, nil, Options{TextSegments: 3, TextSegfile: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cold build left no cache: %v", err)
	}
	warm, err := NewSegmented(site, nil, Options{TextSegments: 3, TextSegfile: path})
	if err != nil {
		t.Fatal(err)
	}
	if warm.TextIndex().NumSegments() != 3 {
		t.Fatalf("warm segments = %d", warm.TextIndex().NumSegments())
	}
	ctx := context.Background()
	for _, q := range []Query{
		{Keyword: "australian open final"},
		{Keyword: "champion"},
		{Source: `find Player rank "left-handed winner"`},
	} {
		cr, cerr := cold.Search(ctx, q)
		wr, werr := warm.Search(ctx, q)
		if (cerr == nil) != (werr == nil) {
			t.Fatalf("%+v: err %v vs %v", q, cerr, werr)
		}
		if cerr != nil {
			continue
		}
		if !reflect.DeepEqual(cr.Items, wr.Items) {
			t.Fatalf("%+v: items diverge\ncold: %v\nwarm: %v", q, cr.Items, wr.Items)
		}
	}
}

func TestTextSegfileCacheStaleRebuild(t *testing.T) {
	siteA := cacheSite(t, 3)
	siteB := cacheSite(t, 4)
	path := filepath.Join(t.TempDir(), "text.segf")
	if _, err := NewSegmented(siteA, nil, Options{TextSegments: 2, TextSegfile: path}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Different corpus: signature mismatch forces a rebuild and rewrite.
	eb, err := NewSegmented(siteB, nil, Options{TextSegments: 2, TextSegfile: path})
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) == string(after) {
		t.Fatal("stale cache not rewritten for a different corpus")
	}
	// The rebuilt engine matches a cache-free build of the same site.
	plain, err := NewSegmented(siteB, nil, Options{TextSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	pb, _, _ := plain.TextIndex().Search("australian open", 10)
	cb, _, _ := eb.TextIndex().Search("australian open", 10)
	if !reflect.DeepEqual(pb, cb) {
		t.Fatalf("rebuilt cache diverges: %v vs %v", pb, cb)
	}
	// Different partition count over the same corpus also misses.
	if _, err := NewSegmented(siteB, nil, Options{TextSegments: 3, TextSegfile: path}); err != nil {
		t.Fatal(err)
	}
	again, err := NewSegmented(siteB, nil, Options{TextSegments: 3, TextSegfile: path})
	if err != nil {
		t.Fatal(err)
	}
	if again.TextIndex().NumSegments() != 3 {
		t.Fatalf("segments = %d after nseg change", again.TextIndex().NumSegments())
	}
	// A corrupt cache is rebuilt, not served and not fatal. Flip a header
	// byte so the open reliably fails (mid-file flips may land in bulk
	// blocks, which are never checksummed).
	data, _ := os.ReadFile(path)
	data[2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSegmented(siteB, nil, Options{TextSegments: 3, TextSegfile: path}); err != nil {
		t.Fatalf("corrupt cache not recovered: %v", err)
	}
}

// TestTextSegfileCacheOldVersionRebuild: testdata/text-v1.segf is the
// format-1 text cache (with the impact-ordered blocks) that the last format-1
// build wrote for cacheSite(3) at two text segments, text-v2.segf the
// format-2 cache (8-byte postings) the last format-2 build wrote for the same
// site, text-v3.segf the format-3 cache (per-posting TF and impact
// columns) the last format-3 build wrote for it, text-v4.segf the format-4
// cache (with the idf block) the last format-4 build wrote for it, and
// text-v5.segf the format-5 cache (every list a doc-ID range) the last
// format-5 build wrote for it, and text-v6.segf the format-6 cache (dense
// lists as bitmaps, whole-string dictionary and names) the last format-6
// build wrote for it.
// Their signatures match, so only their version refuses them: the boot
// rebuilds, replaces the file with the cache a fresh cold build writes, and
// answers as a cache-free build does.
func TestTextSegfileCacheOldVersionRebuild(t *testing.T) {
	site := cacheSite(t, 3)
	plain, err := NewSegmented(site, nil, Options{TextSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []string{"1", "2", "3", "4", "5", "6"} {
		t.Run("v"+version, func(t *testing.T) {
			old, err := os.ReadFile(filepath.Join("testdata", "text-v"+version+".segf"))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			path := filepath.Join(dir, "text.segf")
			if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ir.OpenSegmentsFile(path, 0); err == nil || !strings.Contains(err.Error(), "version "+version) {
				t.Fatalf("version-%s cache: open err = %v, want a version refusal", version, err)
			}
			booted, err := NewSegmented(site, nil, Options{TextSegments: 2, TextSegfile: path})
			if err != nil {
				t.Fatal(err)
			}
			fresh := filepath.Join(dir, "fresh.segf")
			if _, err := NewSegmented(site, nil, Options{TextSegments: 2, TextSegfile: fresh}); err != nil {
				t.Fatal(err)
			}
			got, _ := os.ReadFile(path)
			want, _ := os.ReadFile(fresh)
			if !bytes.Equal(got, want) {
				t.Fatalf("the version-%s cache was not replaced by a fresh one (%d bytes, fresh %d)", version, len(got), len(want))
			}
			ctx := context.Background()
			for _, q := range []Query{
				{Keyword: "australian open final"},
				{Hybrid: "champion"},
				{Source: `find Player rank "left-handed winner"`},
			} {
				br, berr := booted.Search(ctx, q)
				pr, perr := plain.Search(ctx, q)
				if berr != nil || perr != nil {
					t.Fatalf("%+v: err %v / %v", q, berr, perr)
				}
				if !reflect.DeepEqual(br.Items, pr.Items) {
					t.Fatalf("%+v: answers diverge\nbooted: %v\nplain:  %v", q, br.Items, pr.Items)
				}
			}
		})
	}
}

// textFile is a text cache decoded field by field straight from its blocks,
// independently of package ir's reader: the header record, and per segment
// its dictionary, idf bits (none from format 5 on), each term's doc IDs,
// TFs and impact bits, and its document names and lengths.
type textFile struct {
	docs, vocab, signature uint64
	segs                   []textSeg
}

type textSeg struct {
	totalLen uint64
	terms    []string
	idf      []uint64   // float64 bits
	docs     [][]uint64 // by term
	tfs      [][]uint64
	imps     [][]uint32 // float32 bits
	names    []string
	doclen   []uint64
}

// postings returns the segment's posting count.
func (s textSeg) postings() int {
	n := 0
	for _, d := range s.docs {
		n += len(d)
	}
	return n
}

// decodeTextFile decodes the text cache at path, of layout version 2 (8-byte
// postings, u64 offsets, i32 lengths), 3 (the integer columns at the widths
// the segment record names, each of which must be the narrowest that holds
// the column's largest value), 4 (version 3 with each posting's TF and
// impact read through its code into its term's book, whose pairs must be
// distinct, in first-appearance order and all used) or 5 (version 4 without
// the idf block) or 6 (version 5 with each list of more than a sixteenth of
// its segment stored as a bitmap, and each list of every document as
// nothing: denseDocs reads their doc IDs back) or 7 (version 6 with the
// dictionary and the names front-coded: frontTable reads them back).
func decodeTextFile(t *testing.T, path string) textFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := segfile.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var head struct {
		Version, Segments      uint32
		Docs, Vocab, Signature uint64
	}
	if err := r.Record("ir/meta", &head); err != nil {
		t.Fatal(err)
	}
	block := func(name string) []byte {
		b, ok := r.Block(name)
		if !ok {
			t.Fatalf("%s: no block %q", path, name)
		}
		return b
	}
	// uints decodes a column of w-byte little-endian values and checks that
	// w is the narrowest width holding them (when narrowest is set).
	uints := func(name string, w int, narrowest bool) []uint64 {
		b := block(name)
		if w <= 0 || len(b)%w != 0 {
			t.Fatalf("%s: block %q of %d bytes is not %d-byte values", path, name, len(b), w)
		}
		vs := make([]uint64, len(b)/w)
		var top uint64
		for i := range vs {
			var v [8]byte
			copy(v[:], b[i*w:(i+1)*w])
			vs[i] = binary.LittleEndian.Uint64(v[:])
			top = max(top, vs[i])
		}
		want := 1
		for want < 8 && top>>(8*want) != 0 {
			want *= 2
		}
		if narrowest && len(b) > 0 && w != want {
			t.Fatalf("%s: block %q stores %d-byte values, its largest is %d", path, name, w, top)
		}
		return vs
	}
	f := textFile{docs: head.Docs, vocab: head.Vocab, signature: head.Signature}
	for i := 0; i < int(head.Segments); i++ {
		pre := fmt.Sprintf("ir/%d/", i)
		var meta struct {
			Docs     uint32
			TotalLen uint64
			Terms    uint32
			Postings uint64
		}
		var widths [4]uint8     // offsets, doc IDs, TFs, lengths
		var headWidths [2]uint8 // format 7: the dictionary's and the names' restart heads
		var postoff, docs, tfs, doclen []uint64
		var imp []byte
		switch head.Version {
		case 2:
			if err := r.Record(pre+"meta", &meta); err != nil {
				t.Fatal(err)
			}
			postoff = uints(pre+"postoff", 8, false)
			post := uints(pre+"docpost", 4, false) // (Doc, TF) int32 pairs
			for j := 0; j+1 < len(post); j += 2 {
				docs, tfs = append(docs, post[j]), append(tfs, post[j+1])
			}
			doclen = uints(pre+"doclen", 4, false)
			imp = block(pre + "docimp")
		case 3:
			if err := r.Record(pre+"meta", &meta, &widths); err != nil {
				t.Fatal(err)
			}
			postoff = uints(pre+"postoff", int(widths[0]), true)
			docs = uints(pre+"postdoc", int(widths[1]), true)
			tfs = uints(pre+"posttf", int(widths[2]), true)
			doclen = uints(pre+"doclen", int(widths[3]), true)
			imp = block(pre + "postimp")
		case 4, 5, 6, 7:
			var entries uint64
			var w [6]uint8      // offsets, doc IDs, codes, lengths, book offsets, book TFs
			var dense [2]uint32 // format 6: bitmap and full lists
			var dw [3]uint8     // format 6: bitmap and full ordinals, rank samples
			switch head.Version {
			case 4, 5:
				err = r.Record(pre+"meta", &meta, &entries, &w)
			case 6:
				err = r.Record(pre+"meta", &meta, &entries, &w, &dense, &dw)
			default:
				err = r.Record(pre+"meta", &meta, &entries, &w, &dense, &dw, &headWidths)
			}
			if err != nil {
				t.Fatal(err)
			}
			postoff = uints(pre+"postoff", int(w[0]), true)
			docs = uints(pre+"postdoc", int(w[1]), true)
			if head.Version >= 6 {
				docs = denseDocs(t, path, i, int(meta.Docs), postoff, docs, dense,
					uints(pre+"bitord", int(dw[0]), true), uints(pre+"fullord", int(dw[1]), true),
					uints(pre+"bitmap", 8, false), uints(pre+"bitrank", int(dw[2]), true))
			}
			codes := uints(pre+"postcode", int(w[2]), true)
			doclen = uints(pre+"doclen", int(w[3]), true)
			bookoff := uints(pre+"bookoff", int(w[4]), true)
			booktf := uints(pre+"booktf", int(w[5]), true)
			bookimp := block(pre + "bookimp")
			if len(postoff) != int(meta.Terms)+1 || len(codes) != len(docs) || len(bookoff) != len(postoff) ||
				len(booktf) != int(entries) || len(bookimp) != 4*int(entries) || bookoff[len(bookoff)-1] != entries {
				t.Fatalf("%s segment %d: book columns disagree with the record %+v, %d entries", path, i, meta, entries)
			}
			// Each posting reads its TF and impact through its term's book,
			// whose pairs are distinct and in first-appearance order.
			for o := 0; o+1 < len(postoff); o++ {
				b, next := bookoff[o], uint64(0)
				seen := map[[2]uint64]bool{}
				for e := b; e < bookoff[o+1]; e++ {
					pair := [2]uint64{booktf[e], uint64(binary.LittleEndian.Uint32(bookimp[4*e:]))}
					if seen[pair] {
						t.Fatalf("%s segment %d: term %d's book holds %v twice", path, i, o, pair)
					}
					seen[pair] = true
				}
				for _, c := range codes[postoff[o]:postoff[o+1]] {
					if c > next || b+c >= bookoff[o+1] {
						t.Fatalf("%s segment %d: term %d uses code %d before code %d, or past its book", path, i, o, c, next)
					}
					next = max(next, c+1)
					tfs = append(tfs, booktf[b+c])
					imp = append(imp, bookimp[4*(b+c):4*(b+c)+4]...)
				}
				if next != bookoff[o+1]-b {
					t.Fatalf("%s segment %d: term %d uses %d of its %d book entries", path, i, o, next, bookoff[o+1]-b)
				}
			}
		default:
			t.Fatalf("%s: layout version %d", path, head.Version)
		}
		var terms, names []string
		if head.Version < 7 {
			terms = wholeTable(t, r, pre+"terms", pre+"termoff", int(meta.Terms))
			names = wholeTable(t, r, pre+"names", pre+"nameoff", int(meta.Docs))
		} else {
			terms = frontTable(t, r, pre+"terms", uints(pre+"termhead", int(headWidths[0]), true), int(meta.Terms))
			names = frontTable(t, r, pre+"names", uints(pre+"namehead", int(headWidths[1]), true), int(meta.Docs))
		}
		var idf []byte
		if head.Version < 5 {
			idf = block(pre + "idf")
		} else if _, ok := r.Block(pre + "idf"); ok {
			t.Fatalf("%s segment %d: format %d stores an idf block", path, i, head.Version)
		}
		seg := textSeg{totalLen: meta.TotalLen, doclen: doclen}
		if len(postoff) != int(meta.Terms)+1 || len(docs) != int(meta.Postings) || len(tfs) != len(docs) ||
			len(imp) != 4*len(docs) || (idf != nil && len(idf) != 8*int(meta.Terms)) || len(doclen) != int(meta.Docs) {
			t.Fatalf("%s segment %d: column lengths disagree with the record %+v", path, i, meta)
		}
		for o := 0; o < int(meta.Terms); o++ {
			lo, hi := postoff[o], postoff[o+1]
			seg.terms = append(seg.terms, terms[o])
			if idf != nil {
				seg.idf = append(seg.idf, binary.LittleEndian.Uint64(idf[8*o:]))
			}
			seg.docs = append(seg.docs, docs[lo:hi])
			seg.tfs = append(seg.tfs, tfs[lo:hi])
			var ib []uint32
			for j := lo; j < hi; j++ {
				ib = append(ib, binary.LittleEndian.Uint32(imp[4*j:]))
			}
			seg.imps = append(seg.imps, ib)
		}
		seg.names = names
		f.segs = append(f.segs, seg)
	}
	return f
}

// wholeTable decodes the n strings of a table of formats 1-6: their bytes
// concatenated in block data and n+1 u32 offsets delimiting them in block
// off, starting at 0 and ending at the bytes' end.
func wholeTable(t *testing.T, r *segfile.Reader, data, off string, n int) []string {
	t.Helper()
	b, _ := r.Block(data)
	o, ok := r.Block(off)
	if !ok || len(o) != 4*(n+1) {
		t.Fatalf("block %q holds %d bytes, want %d offsets", off, len(o), n+1)
	}
	at := func(i int) uint32 { return binary.LittleEndian.Uint32(o[4*i:]) }
	if at(0) != 0 || int(at(n)) != len(b) {
		t.Fatalf("offsets %q do not span block %q", off, data)
	}
	out := []string{}
	for i := 0; i < n; i++ {
		if at(i) > at(i+1) {
			t.Fatalf("offsets %q descend at %d", off, i)
		}
		out = append(out, string(b[at(i):at(i+1)]))
	}
	return out
}

// frontTable decodes the n strings of a format-7 table: block data holds
// them front-coded, each a uvarint shared-prefix length, a uvarint suffix
// length and the suffix, sharing the longest prefix it has in common with
// the string before it, and every 8th string sharing nothing; heads holds
// the byte offset of every 8th.
func frontTable(t *testing.T, r *segfile.Reader, data string, heads []uint64, n int) []string {
	t.Helper()
	b, _ := r.Block(data)
	if len(heads) != (n+7)/8 {
		t.Fatalf("block %q: %d restart heads for %d strings", data, len(heads), n)
	}
	out := []string{}
	prev, at := "", 0
	for i := 0; i < n; i++ {
		if i%8 == 0 && heads[i/8] != uint64(at) {
			t.Fatalf("block %q: head %d at %d, string %d at %d", data, i/8, heads[i/8], i, at)
		}
		p, n1 := binary.Uvarint(b[at:])
		l, n2 := binary.Uvarint(b[at+n1:])
		at += n1 + n2
		s := prev[:p] + string(b[at:at+int(l)])
		at += int(l)
		want := 0
		for i%8 != 0 && want < min(len(prev), len(s)) && prev[want] == s[want] {
			want++
		}
		if int(p) != want {
			t.Fatalf("block %q: string %d (%q) shares %d bytes of %q, want %d", data, i, s, p, prev, want)
		}
		out = append(out, s)
		prev = s
	}
	if at != len(b) {
		t.Fatalf("block %q: %d bytes past its %d strings", data, len(b)-at, n)
	}
	return out
}

// denseDocs returns the doc IDs of segment i of a format-6 text cache of
// docs documents in term order, as formats 2-5 store them: each term's
// list read from the sparse doc-ID column, its bitmap or, for a full list,
// every document. It checks the storage rule on every list, that the
// bitmap and full ordinals ascend, that no bit is set past the last
// document, and that rank sample j counts the set bits of the bitmap's
// first 8(j+1) words.
func denseDocs(t *testing.T, path string, i, docs int, postoff, sparse []uint64, dense [2]uint32, bitord, fullord, bitmap, ranks []uint64) []uint64 {
	t.Helper()
	words := (docs + 63) / 64
	samples := 0
	if words > 0 {
		samples = (words - 1) / 8
	}
	if len(bitord) != int(dense[0]) || len(fullord) != int(dense[1]) || len(bitmap) != words*len(bitord) || len(ranks) != samples*len(bitord) {
		t.Fatalf("%s segment %d: dense columns disagree with the record %v", path, i, dense)
	}
	var out []uint64
	for o := 0; o+1 < len(postoff); o++ {
		n := int(postoff[o+1] - postoff[o])
		switch {
		case len(fullord) > 0 && fullord[0] == uint64(o):
			if n != docs {
				t.Fatalf("%s segment %d: full term %d holds %d of %d docs", path, i, o, n, docs)
			}
			fullord = fullord[1:]
			for d := 0; d < docs; d++ {
				out = append(out, uint64(d))
			}
		case len(bitord) > 0 && bitord[0] == uint64(o):
			if 16*n <= docs || n == docs {
				t.Fatalf("%s segment %d: bitmap term %d holds %d of %d docs", path, i, o, n, docs)
			}
			bitord = bitord[1:]
			bm := bitmap[:words]
			bitmap = bitmap[words:]
			held := 0
			for w, x := range bm {
				if w > 0 && w%8 == 0 {
					if ranks[w/8-1] != uint64(held) {
						t.Fatalf("%s segment %d: term %d's rank sample %d is %d, not %d", path, i, o, w/8-1, ranks[w/8-1], held)
					}
				}
				for b := 0; b < 64; b++ {
					if x>>b&1 == 1 {
						if w*64+b >= docs {
							t.Fatalf("%s segment %d: term %d's bitmap holds doc %d of %d", path, i, o, w*64+b, docs)
						}
						out = append(out, uint64(w*64+b))
						held++
					}
				}
			}
			ranks = ranks[samples:]
			if held != n {
				t.Fatalf("%s segment %d: term %d's bitmap holds %d docs for %d postings", path, i, o, held, n)
			}
		default:
			if 16*n > docs {
				t.Fatalf("%s segment %d: sparse term %d holds %d of %d docs", path, i, o, n, docs)
			}
			out = append(out, sparse[:n]...)
			sparse = sparse[n:]
		}
	}
	if len(bitord)+len(fullord)+len(sparse) != 0 {
		t.Fatalf("%s segment %d: %d bitmap and %d full ordinals, %d doc IDs left over", path, i, len(bitord), len(fullord), len(sparse))
	}
	return out
}

// TestTextFormat3EqualsFormat2 is the evidence behind re-recording the text
// cache's byte goldens for format 3: the committed format-2 cache of
// cacheSite(3) at two segments (written by the last format-2 build) and the
// committed format-3 cache of the same site (written by the last format-3
// build) hold the same header, and per segment the same dictionary, idf
// bits, per-term doc IDs, TFs and impact bits, names and doc lengths. Only
// the widths the values are stored at differ.
func TestTextFormat3EqualsFormat2(t *testing.T) {
	sameTextFile(t, filepath.Join("testdata", "text-v2.segf"), filepath.Join("testdata", "text-v3.segf"))
}

// TestTextFormat4EqualsFormat3 is the evidence behind re-recording the text
// cache's byte golden for format 4: the committed format-3 cache of
// cacheSite(3) at two segments and the committed format-4 cache of the same
// site (written by the last format-4 build) hold the same header, and per
// segment the same dictionary, idf bits, per-term doc IDs, TFs and impact
// bits, names and doc lengths. Format 4 stores a posting's TF and impact once
// per distinct pair, in its term's book, and the posting a code into it;
// decodeTextFile reads them back through it.
func TestTextFormat4EqualsFormat3(t *testing.T) {
	sameTextFile(t, filepath.Join("testdata", "text-v3.segf"), filepath.Join("testdata", "text-v4.segf"))
}

// TestTextFormat5EqualsFormat4 is the evidence behind re-recording the text
// cache's byte goldens for format 5: the committed format-4 cache of
// cacheSite(3) at two segments and the committed format-5 cache of the same
// site (written by the last format-5 build) hold the same header, and per
// segment the same dictionary, per-term doc IDs, TFs and impact bits, names
// and doc lengths. Format 5 drops the idf block; what format 4 stored there
// is each term's BM25 idf over the union collection, its document frequency
// the summed length of the term's lists, which the impacts already fold in.
func TestTextFormat5EqualsFormat4(t *testing.T) {
	old := decodeTextFile(t, filepath.Join("testdata", "text-v4.segf"))
	df := map[string]int{}
	for _, seg := range old.segs {
		for o, term := range seg.terms {
			df[term] += len(seg.docs[o])
		}
	}
	n := float64(old.docs)
	for i := range old.segs {
		seg := &old.segs[i]
		if len(seg.idf) != len(seg.terms) {
			t.Fatalf("format-4 segment %d holds %d idfs for %d terms", i, len(seg.idf), len(seg.terms))
		}
		for o, term := range seg.terms {
			d := float64(df[term])
			if want := math.Float64bits(math.Log(1 + (n-d+0.5)/(d+0.5))); seg.idf[o] != want {
				t.Fatalf("format-4 segment %d term %q: idf bits %#x, union idf %#x", i, term, seg.idf[o], want)
			}
		}
		seg.idf = nil
	}
	cur := decodeTextFile(t, filepath.Join("testdata", "text-v5.segf"))
	if !reflect.DeepEqual(old, cur) {
		t.Fatal("the format-5 cache differs from the format-4 cache outside the idf block")
	}
}

// TestTextFormat6EqualsFormat5 is the evidence behind re-recording the text
// cache's byte goldens for format 6: the committed format-5 cache of
// cacheSite(3) at two segments and the committed format-6 cache of the same
// site (written by the last format-6 build) hold the same header, and per
// segment the same dictionary, per-term doc IDs, TFs and impact bits, names
// and doc lengths. Format 6 stores a list of more than a sixteenth of its
// segment as a bitmap and a list of every document as nothing;
// decodeTextFile reads their doc IDs back and checks the rule on every
// list. Both storage kinds must occur.
func TestTextFormat6EqualsFormat5(t *testing.T) {
	path := filepath.Join("testdata", "text-v6.segf")
	sameTextFile(t, filepath.Join("testdata", "text-v5.segf"), path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := segfile.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"bitord", "fullord"} {
		b0, _ := r.Block("ir/0/" + kind)
		b1, _ := r.Block("ir/1/" + kind)
		if len(b0)+len(b1) == 0 {
			t.Errorf("the format-6 cache stores no %s", kind)
		}
	}
}

// TestTextFormat7EqualsFormat6 is the evidence behind re-recording the text
// cache's byte goldens for format 7: the committed format-6 cache of
// cacheSite(3) at two segments and a format-7 build of the same site hold
// the same header, and per segment the same dictionary, per-term doc IDs,
// TFs and impact bits, names and doc lengths. Format 7 front-codes the
// dictionary and the names; decodeTextFile reads them back, checking that
// every string shares the longest prefix it can and every 8th nothing.
// Both tables must have more than one restart block.
func TestTextFormat7EqualsFormat6(t *testing.T) {
	path := filepath.Join(t.TempDir(), "text.segf")
	if _, err := NewSegmented(cacheSite(t, 3), nil, Options{TextSegments: 2, TextSegfile: path}); err != nil {
		t.Fatal(err)
	}
	sameTextFile(t, filepath.Join("testdata", "text-v6.segf"), path)
	for i, seg := range decodeTextFile(t, path).segs {
		if len(seg.terms) <= 8 || len(seg.names) <= 8 {
			t.Errorf("segment %d holds %d terms and %d names: want more than one restart block of each", i, len(seg.terms), len(seg.names))
		}
	}
}

// sameTextFile decodes the text caches at the paths, the older layout first,
// and fails on the first field they disagree on.
func sameTextFile(t *testing.T, oldPath, newPath string) {
	t.Helper()
	old, cur := decodeTextFile(t, oldPath), decodeTextFile(t, newPath)
	if len(old.segs) != 2 || old.segs[0].postings() == 0 {
		t.Fatalf("%s holds %d segments", oldPath, len(old.segs))
	}
	if reflect.DeepEqual(old, cur) {
		return
	}
	if old.docs != cur.docs || old.vocab != cur.vocab || old.signature != cur.signature {
		t.Fatalf("header: %s (%d, %d, %#x), %s (%d, %d, %#x)", oldPath, old.docs, old.vocab, old.signature, newPath, cur.docs, cur.vocab, cur.signature)
	}
	for i := range old.segs {
		if i >= len(cur.segs) || !reflect.DeepEqual(old.segs[i], cur.segs[i]) {
			t.Fatalf("segment %d differs between %s and %s", i, oldPath, newPath)
		}
	}
	t.Fatalf("%s and %s differ", oldPath, newPath)
}

// liveHeap collects garbage and reads the live heap it leaves. The second
// collection empties what sync.Pools kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// A cold boot serves the page-lane caches it has just written, so it equals
// a warm boot over the same files: the same answers in the lexical, vector
// and hybrid lanes, and the same live heap — the lanes are mapped, and what
// the cold build allocated to make them is garbage once it returns.
func TestColdBootEqualsWarmBoot(t *testing.T) {
	site := laneCacheSite(t)
	dir := t.TempDir()
	opts := Options{
		TextSegments: 4,
		TextSegfile:  filepath.Join(dir, "text.segf"),
		VecSegfile:   filepath.Join(dir, "vec.segf"),
	}
	queries := []Query{
		{Keyword: "australian open final"},
		{Keyword: "left-handed champion"},
		{Vector: "australian open final"},
		{Vector: "women's singles winner"},
		{Hybrid: "australian open final"},
		{Hybrid: "champion interview"},
	}
	ctx := context.Background()
	boot := func() (answers [][]Item, heap uint64) {
		base := liveHeap()
		e, err := NewSegmented(site, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		heap = liveHeap() - base
		for _, q := range queries {
			rs, err := e.Search(ctx, q)
			if err != nil {
				t.Fatalf("%+v: %v", q, err)
			}
			if len(rs.Items) == 0 {
				t.Fatalf("%+v: no answers", q)
			}
			answers = append(answers, rs.Items)
		}
		runtime.KeepAlive(e)
		return answers, heap
	}
	cold, coldHeap := boot()
	warm, warmHeap := boot()
	for i, q := range queries {
		if !reflect.DeepEqual(cold[i], warm[i]) {
			t.Errorf("%+v: cold and warm answers diverge\ncold: %v\nwarm: %v", q, cold[i], warm[i])
		}
	}
	runtime.KeepAlive(site) // its pages must not be freed inside the warm boot's measurement
	t.Logf("live heap of the engine: cold %d bytes, warm %d bytes", coldHeap, warmHeap)
	if coldHeap > warmHeap+warmHeap/10+64<<10 {
		t.Errorf("a cold boot holds %d bytes of live heap, a warm boot %d: want within 10%% + 64 KB", coldHeap, warmHeap)
	}
}
