package vec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/segfile"
)

// synthDocs generates a deterministic corpus: ndocs texts drawn from a
// small vocabulary so queries hit overlapping token sets.
func synthDocs(ndocs int, seed int64) (names, texts []string) {
	vocab := []string{
		"net", "play", "rally", "serve", "ace", "smith", "jones", "final",
		"open", "melbourne", "backhand", "volley", "champion", "set",
		"tiebreak", "interview", "highlight", "court", "match", "point",
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ndocs; i++ {
		n := 3 + rng.Intn(12)
		text := ""
		for w := 0; w < n; w++ {
			if w > 0 {
				text += " "
			}
			text += vocab[rng.Intn(len(vocab))]
		}
		names = append(names, fmt.Sprintf("doc-%04d", i))
		texts = append(texts, text)
	}
	return names, texts
}

// partitioned builds the same corpus split contiguously into nseg parts,
// and each part's name table.
func partitioned(e *HashEmbedder, names, texts []string, nseg int) ([]*Builder, []segfile.Table) {
	parts := make([]*Builder, nseg)
	tables := make([]segfile.Table, nseg)
	for i := range parts {
		parts[i] = NewBuilder(e)
	}
	per := (len(names) + nseg - 1) / nseg
	for i := range names {
		p := i / per
		if p >= nseg {
			p = nseg - 1
		}
		parts[p].AddTokens(ir.Analyze(texts[i]))
		tables[p].Append(names[i])
	}
	return parts, tables
}

// compose is NewSegments over partitioned.
func compose(t testing.TB, e *HashEmbedder, names, texts []string, nseg int) *Segments {
	t.Helper()
	parts, tables := partitioned(e, names, texts, nseg)
	s, err := NewSegments(e, parts, tables)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var testQueries = []string{
	"net play", "smith rally", "champion final melbourne", "ace", "volley tiebreak point",
}

func TestEmbedDeterministic(t *testing.T) {
	e := DefaultEmbedder()
	for _, text := range []string{"net play rally", "smith serves an ace", ""} {
		a, b := e.Embed(text), e.Embed(text)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%q: coordinate %d differs across calls: %v vs %v", text, i, a[i], b[i])
			}
		}
	}
	// Non-empty texts embed to unit vectors.
	v := e.Embed("net play rally")
	var ss float64
	for _, x := range v {
		ss += float64(x) * float64(x)
	}
	if math.Abs(ss-1) > 1e-5 {
		t.Fatalf("squared norm %v, want 1", ss)
	}
	// No indexable tokens: the zero vector.
	for i, x := range e.Embed("  ...  ") {
		if x != 0 {
			t.Fatalf("empty text coordinate %d = %v, want 0", i, x)
		}
	}
}

// TestVecSegmentsParity locks the composition invariant: the same
// corpus partitioned 1/2/3/4 ways answers every query byte-identically —
// same docs, same names, same float64 score bits, same tie-breaks.
func TestVecSegmentsParity(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(157, 7)
	mono := compose(t, e, names, texts, 1)
	for _, nseg := range []int{2, 3, 4} {
		s := compose(t, e, names, texts, nseg)
		for _, q := range testQueries {
			for _, k := range []int{0, 1, 10} {
				want, _, err := mono.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := s.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("segs=%d %q k=%d: %d hits, want %d", nseg, q, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("segs=%d %q k=%d hit %d: %+v, want %+v", nseg, q, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// oracleEmbed is the hash embedding as the lane computed it while it
// stored float32 vectors (vec format 1): the ±1/±0.5 contributions summed
// in float32 in token order, then scaled by float32(1/√ss).
func oracleEmbed(dim int, toks []string) []float32 {
	v := make([]float32, dim)
	for i, tok := range toks {
		hash := fnvAdd(fnvOffset, tok)
		w := float32(1)
		if hash>>63&1 == 1 {
			w = -1
		}
		v[int(hash%uint64(dim))] += w
		if i > 0 {
			bh := fnvAdd(fnvAdd(fnvAdd(fnvOffset, toks[i-1]), " "), tok)
			bw := float32(0.5)
			if bh>>63&1 == 1 {
				bw = -0.5
			}
			v[int(bh%uint64(dim))] += bw
		}
	}
	var ss float64
	for _, x := range v {
		ss += float64(x) * float64(x)
	}
	if ss != 0 {
		inv := float32(1 / math.Sqrt(ss))
		for i := range v {
			v[i] *= inv
		}
	}
	return v
}

// oracleDot is the format-1 score: the float64 sum of the float32
// coordinates' products, in coordinate order.
func oracleDot(a, b []float32) float64 {
	var sum float64
	for i := range a {
		sum += float64(a[i]) * float64(b[i])
	}
	return sum
}

// naiveRanking is the lane's oracle, kept here and nowhere in the package:
// every document's oracleDot with the query, both embedded by oracleEmbed,
// sorted by (score desc, DocID asc). docs holds each document's tokens in
// DocID order.
func naiveRanking(dim int, names []string, docs [][]string, q string) []ir.Hit {
	qv := oracleEmbed(dim, ir.Analyze(q))
	out := make([]ir.Hit, len(docs))
	for d, toks := range docs {
		out[d] = ir.Hit{Doc: ir.DocID(d), Name: names[d], Score: oracleDot(qv, oracleEmbed(dim, toks))}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	return out
}

// analyzed returns each text's tokens.
func analyzed(texts []string) [][]string {
	out := make([][]string, len(texts))
	for i, text := range texts {
		out[i] = ir.Analyze(text)
	}
	return out
}

// TestVecMatchesNaiveOracle is the lane's exactness lock: over a corpus
// whose tail repeats earlier texts under new names (equal cosines, so runs
// only the DocID tie-break orders, across segment boundaries), split 1, 2,
// 3 and 5 ways with an empty part among them, every depth of Search, of
// SearchSegments over disjoint ordinal subsets re-merged, and of
// SearchScores equals the oracle's prefix — names and score bits included —
// and the leased scores rank every document where the oracle has it.
func TestVecMatchesNaiveOracle(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(120, 21)
	for i := 0; i < 120; i += 3 {
		names = append(names, "mirror/"+names[i])
		texts = append(texts, texts[i])
	}
	n := len(names)
	all := make([]ir.Hit, n)
	for i := range all {
		all[i].Doc = ir.DocID(i)
	}
	for _, nseg := range []int{1, 2, 3, 5} {
		parts, tables := partitioned(e, names, texts, nseg)
		parts = slices.Insert(parts, nseg/2, NewBuilder(e))
		tables = slices.Insert(tables, nseg/2, segfile.Table{})
		s, err := NewSegments(e, parts, tables)
		if err != nil {
			t.Fatal(err)
		}
		var evens, odds []int
		for o := range parts {
			if o%2 == 0 {
				evens = append(evens, o)
			} else {
				odds = append(odds, o)
			}
		}
		ties := 0
		for _, q := range testQueries {
			oracle := naiveRanking(e.Dim(), names, analyzed(texts), q)
			for i := 1; i < n; i++ {
				if oracle[i].Score == oracle[i-1].Score {
					ties++
				}
			}
			for _, k := range []int{0, 1, 10, n, n + 1} {
				want := oracle
				if k > 0 && k < n {
					want = oracle[:k]
				}
				got, stats, err := s.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || stats.DocsScanned != n {
					t.Fatalf("segs=%d %q k=%d: Search diverges from the oracle (scanned %d of %d)", nseg, q, k, stats.DocsScanned, n)
				}
				var per [][]ir.Hit
				scanned := 0
				for _, ords := range [][]int{evens, odds} {
					if len(ords) == 0 {
						continue
					}
					hits, st, legs, err := s.SearchSegments(q, k, ords)
					if err != nil {
						t.Fatal(err)
					}
					if len(legs) != len(ords) {
						t.Fatalf("segs=%d ords %v: %d legs", nseg, ords, len(legs))
					}
					per = append(per, hits)
					scanned += st.DocsScanned
				}
				if merged := ir.MergeHits(per, k); !reflect.DeepEqual(merged, want) || scanned != n {
					t.Fatalf("segs=%d %q k=%d: re-merged SearchSegments diverges from the oracle", nseg, q, k)
				}
				hits, scores, _, _, err := s.SearchScores(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(hits, want) {
					t.Fatalf("segs=%d %q k=%d: SearchScores hits diverge from the oracle", nseg, q, k)
				}
				ranks := scores.Ranks(all)
				scores.Release()
				for i, h := range oracle {
					if ranks[h.Doc] != i+1 {
						t.Fatalf("segs=%d %q k=%d: doc %d ranked %d, oracle has it at %d", nseg, q, k, h.Doc, ranks[h.Doc], i+1)
					}
				}
			}
		}
		if ties == 0 {
			t.Fatal("no equal scores in any ranking: the DocID tie-break went untested")
		}
	}
}

// TestVecSearchPartial: gathering partial answers over an ordinal
// partition reproduces the full scatter byte for byte — the property the
// distributed tier rides.
func TestVecSearchPartial(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(120, 11)
	s := compose(t, e, names, texts, 4)
	for _, q := range testQueries {
		want, _, err := s.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, split := range [][][]int{
			{{0, 1, 2, 3}},
			{{0, 1}, {2, 3}},
			{{0}, {1}, {2}, {3}},
			{{0, 3}, {1, 2}},
		} {
			var per [][]ir.Hit
			for _, ords := range split {
				hits, _, _, err := s.SearchSegments(q, 0, ords)
				if err != nil {
					t.Fatal(err)
				}
				per = append(per, hits)
			}
			got := ir.MergeHits(per, 0)
			if len(got) != len(want) {
				t.Fatalf("%q split %v: %d hits, want %d", q, split, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%q split %v hit %d: %+v, want %+v", q, split, i, got[i], want[i])
				}
			}
		}
	}
	// Out-of-range ordinals error cleanly.
	for _, ords := range [][]int{{-1}, {4}, {0, 9}} {
		if _, _, _, err := s.SearchSegments("net", 0, ords); err == nil {
			t.Fatalf("ordinals %v: want error", ords)
		}
	}
}

func TestVecEmptyQuery(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(10, 1)
	s := compose(t, e, names, texts, 2)
	for _, q := range []string{"", "  ", "..."} {
		if _, _, err := s.Search(q, 5); !errors.Is(err, ir.ErrEmptyQry) {
			t.Fatalf("query %q: err %v, want ErrEmptyQry", q, err)
		}
	}
}

// TestVecEmptySegment: zero-document parts compose and search cleanly.
func TestVecEmptySegment(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(20, 9)
	parts, tables := partitioned(e, names, texts, 2)
	s, err := NewSegments(e, append(parts, NewBuilder(e)), append(tables, segfile.Table{}))
	if err != nil {
		t.Fatal(err)
	}
	hits, _, err := s.Search("net play", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != len(names) {
		t.Fatalf("%d hits, want %d", len(hits), len(names))
	}
}

// TestVecBoundedDepth locks the depth-bounded scan: every depth from 1 past
// the corpus returns exactly the oracle ranking's prefix with the same
// stats, and SearchScores returns the same hits while its leased scores rank
// every document where the full ranking has it.
func TestVecBoundedDepth(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(90, 5)
	all := make([]ir.Hit, len(names))
	for i := range all {
		all[i].Doc = ir.DocID(i)
	}
	for _, nseg := range []int{1, 2, 3} {
		s := compose(t, e, names, texts, nseg)
		for _, q := range testQueries {
			full, stats, err := s.Search(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(full) != stats.DocsScanned {
				t.Fatalf("%q: %d hits, %d scanned", q, len(full), stats.DocsScanned)
			}
			if !reflect.DeepEqual(full, naiveRanking(e.Dim(), names, analyzed(texts), q)) {
				t.Fatalf("segs=%d %q: full ranking diverges from the sorted scan", nseg, q)
			}
			rank := map[ir.DocID]int{}
			for i, h := range full {
				rank[h.Doc] = i + 1
			}
			for k := 1; k <= len(names)+1; k++ {
				got, kStats, err := s.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, full[:min(k, len(full))]) || kStats != stats {
					t.Fatalf("segs=%d %q k=%d: not the prefix of the full ranking", nseg, q, k)
				}
				if k%7 != 1 {
					continue
				}
				hits, scores, _, _, err := s.SearchScores(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(hits, got) {
					t.Fatalf("segs=%d %q k=%d: SearchScores hits diverge", nseg, q, k)
				}
				for d, r := range scores.Ranks(all) {
					if r != rank[ir.DocID(d)] {
						t.Fatalf("segs=%d %q: doc %d rank %d, want %d", nseg, q, d, r, rank[ir.DocID(d)])
					}
				}
				scores.Release()
			}
		}
	}
}

// TestVecSearchAllocs is the allocation lock of the bounded scan: a top-10
// search allocates per query and per segment (analysis, embedding, one
// hit list and at most one goroutine per leg, the merge; 25 here on two
// cores), never per scanned document — the append-and-sort scan it
// replaced made 74 here. The ceiling leaves room for the race detector,
// under which sync.Pool drops a share of what is put.
func TestVecSearchAllocs(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(2000, 9)
	s := compose(t, e, names, texts, 4)
	const q = "champion final melbourne"
	s.Search(q, 10) // warm the score-array pools
	if allocs := testing.AllocsPerRun(50, func() { s.Search(q, 10) }); allocs > 60 {
		t.Fatalf("Search(q, 10) allocates %.0f times per query, want <= 60", allocs)
	}
}

// TestVecFormat2MatchesFloatOracle is the exactness lock of the count
// layout: over random token streams, every embedding EmbedTokens returns
// and every coordinate a segment stores are bit-equal to oracleEmbed, and
// heap-built and mapped segments answer like the float32 scan they
// replaced — hits, names and score bits, totals, and ScoreSegments ranks —
// with int8, int16 and int32 segments, token-less documents (scale 0),
// tied scores, and an odd row count per part, so the four-row kernel's
// tail runs too.
func TestVecFormat2MatchesFloatOracle(t *testing.T) {
	e := DefaultEmbedder()
	rng := rand.New(rand.NewSource(37))
	words := ir.Analyze("net play rally serve ace smith jones final open melbourne backhand volley champion set tiebreak interview")
	words = append(words, "x", "y\x00z", "é")
	var names []string
	var docs [][]string
	add := func(toks []string) {
		names = append(names, fmt.Sprintf("doc-%03d", len(names)))
		docs = append(docs, toks)
	}
	for i := 0; i < 77; i++ {
		toks := make([]string, rng.Intn(40))
		for j := range toks {
			toks[j] = words[rng.Intn(len(words))]
		}
		add(toks)
	}
	add(nil)                                              // no tokens: the zero vector, scale 0
	add(strings.Fields(strings.Repeat("ace ", 70)))       // a count past 127: an int16 part
	add(docs[5])                                          // ties
	add(docs[40])                                         //
	add(strings.Fields(strings.Repeat("volley ", 17000))) // a count past 32767: an int32 part
	for i := 0; i < 12; i++ {
		add(docs[rng.Intn(len(docs))]) // more ties, across parts
	}
	queries := []string{"net play", "ace", "ace ace ace", "volley tiebreak point", "champion final melbourne open", "smith jones"}
	all := make([]ir.Hit, len(docs))
	for d := range all {
		all[d].Doc = ir.DocID(d)
	}

	for d, toks := range docs {
		got, want := e.EmbedTokens(toks), oracleEmbed(e.Dim(), toks)
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("doc %d coordinate %d: EmbedTokens %v, oracle %v", d, j, got[j], want[j])
			}
		}
	}

	// Parts of 15 documents, except the one holding the int32 document,
	// which is cut to hold it alone among int8 rows.
	bounds := []int{0, 15, 30, 45, 60, 75, 81, 82, len(docs)}
	parts := make([]*Builder, len(bounds)-1)
	tables := make([]segfile.Table, len(parts))
	for p := range parts {
		parts[p] = NewBuilder(e)
		for d := bounds[p]; d < bounds[p+1]; d++ {
			parts[p].AddTokens(docs[d])
			tables[p].Append(names[d])
		}
	}
	widths := map[uint8]bool{}
	for p, b := range parts {
		widths[b.codes.width()] = true
		for i := 0; i < b.Len(); i++ {
			want := oracleEmbed(e.Dim(), docs[bounds[p]+i])
			for j := range want {
				c := codeAt(b.codes, i*e.Dim()+j)
				if got := float32(c) * b.scale[i]; math.Float32bits(got) != math.Float32bits(want[j]) {
					t.Fatalf("part %d doc %d coordinate %d: stored %d×%v = %v, oracle %v", p, i, j, c, b.scale[i], got, want[j])
				}
			}
		}
	}
	if !widths[1] || !widths[2] || !widths[4] {
		t.Fatalf("parts have code widths %v, want 1, 2 and 4", widths)
	}

	heap, err := NewSegments(e, parts, tables)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "vec.segf")
	if err := WriteFile(path, e, parts, 1); err != nil {
		t.Fatal(err)
	}
	mapped, closer, err := OpenFile(path, e, 1, tables)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	ties := 0
	for _, q := range queries {
		oracle := naiveRanking(e.Dim(), names, docs, q)
		for i := 1; i < len(oracle); i++ {
			if oracle[i].Score == oracle[i-1].Score {
				ties++
			}
		}
		for lane, s := range map[string]*Segments{"heap": heap, "mapped": mapped} {
			for _, k := range []int{0, 1, 10} {
				want := oracle
				if k > 0 {
					want = oracle[:k]
				}
				got, stats, err := s.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if stats.DocsScanned != len(docs) || len(got) != len(want) {
					t.Fatalf("%s %q k=%d: %d hits of %d scanned, want %d of %d", lane, q, k, len(got), stats.DocsScanned, len(want), len(docs))
				}
				for i := range want {
					if got[i].Doc != want[i].Doc || got[i].Name != want[i].Name ||
						math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						t.Fatalf("%s %q k=%d hit %d: %+v, oracle %+v", lane, q, k, i, got[i], want[i])
					}
				}
			}
			scores, err := s.ScoreSegments(q, s.bases.Ords())
			if err != nil {
				t.Fatal(err)
			}
			ranks := scores.Ranks(all)
			scores.Release()
			for i, h := range oracle {
				if ranks[h.Doc] != i+1 {
					t.Fatalf("%s %q: doc %d ranked %d, oracle has it at %d", lane, q, h.Doc, ranks[h.Doc], i+1)
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no equal scores in any ranking: the DocID tie-break went untested")
	}
}

// codeAt returns count i of c.
func codeAt(c codes, i int) int32 {
	switch v := c.vals.(type) {
	case []int8:
		return int32(v[i])
	case []int16:
		return int32(v[i])
	}
	return c.vals.([]int32)[i]
}
