package vec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/ir"
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

// partitioned builds the same corpus split contiguously into nseg parts.
func partitioned(e Embedder, names, texts []string, nseg int) []*Builder {
	parts := make([]*Builder, nseg)
	for i := range parts {
		parts[i] = NewBuilder(e)
	}
	per := (len(names) + nseg - 1) / nseg
	for i := range names {
		p := i / per
		if p >= nseg {
			p = nseg - 1
		}
		parts[p].AddTokens(names[i], ir.Analyze(texts[i]), e)
	}
	return parts
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
	mono, err := NewSegments(e, partitioned(e, names, texts, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, nseg := range []int{2, 3, 4} {
		s, err := NewSegments(e, partitioned(e, names, texts, nseg))
		if err != nil {
			t.Fatal(err)
		}
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

// naiveRanking is the lane's oracle, kept here and nowhere in the package:
// every document's dot with the query, sorted by (score desc, DocID asc).
// DocIDs are positions in part order.
func naiveRanking(e Embedder, parts []*Builder, q string) []ir.Hit {
	qv := e.Embed(q)
	var out []ir.Hit
	for _, b := range parts {
		for i := 0; i < b.Len(); i++ {
			out = append(out, ir.Hit{Doc: ir.DocID(len(out)), Name: b.Name(i), Score: dot(qv, b.Vec(i))})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
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
		parts := partitioned(e, names, texts, nseg)
		parts = slices.Insert(parts, nseg/2, NewBuilder(e))
		s, err := NewSegments(e, parts)
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
			oracle := naiveRanking(e, parts, q)
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
	s, err := NewSegments(e, partitioned(e, names, texts, 4))
	if err != nil {
		t.Fatal(err)
	}
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
	s, err := NewSegments(e, partitioned(e, names, texts, 2))
	if err != nil {
		t.Fatal(err)
	}
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
	parts := partitioned(e, names, texts, 2)
	parts = append(parts, NewBuilder(e))
	s, err := NewSegments(e, parts)
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
		parts := partitioned(e, names, texts, nseg)
		s, err := NewSegments(e, parts)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range testQueries {
			full, stats, err := s.Search(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(full) != stats.DocsScanned {
				t.Fatalf("%q: %d hits, %d scanned", q, len(full), stats.DocsScanned)
			}
			if !reflect.DeepEqual(full, naiveRanking(e, parts, q)) {
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
	s, err := NewSegments(e, partitioned(e, names, texts, 4))
	if err != nil {
		t.Fatal(err)
	}
	const q = "champion final melbourne"
	s.Search(q, 10) // warm the score-array pools
	if allocs := testing.AllocsPerRun(50, func() { s.Search(q, 10) }); allocs > 60 {
		t.Fatalf("Search(q, 10) allocates %.0f times per query, want <= 60", allocs)
	}
}
