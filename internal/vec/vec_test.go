package vec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
		parts[p].Add(names[i], texts[i], e)
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

// TestVecSegmentsParity locks the union-freeze invariant: the same
// corpus partitioned 1/2/3/4 ways answers every query byte-identically —
// same docs, same names, same float64 score bits, same tie-breaks.
func TestVecSegmentsParity(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(157, 7)
	mono, err := NewSegments(e, partitioned(e, names, texts, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, nseg := range []int{2, 3, 4} {
		s, err := NewSegments(e, partitioned(e, names, texts, nseg), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Centroids() != mono.Centroids() {
			t.Fatalf("segs=%d: %d centroids vs %d monolithic", nseg, s.Centroids(), mono.Centroids())
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

// TestVecIVFMatchesFlat locks the acceptance bar: the IVF path at the
// serving default (all lists probed) is byte-identical to the
// brute-force reference scorer, tie-breaks included.
func TestVecIVFMatchesFlat(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(200, 21)
	for _, nseg := range []int{1, 3} {
		s, err := NewSegments(e, partitioned(e, names, texts, nseg), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range testQueries {
			for _, k := range []int{0, 1, 7, 25} {
				flat, flatStats, err := s.SearchFlat(q, k)
				if err != nil {
					t.Fatal(err)
				}
				ivf, ivfStats, err := s.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(ivf) != len(flat) {
					t.Fatalf("segs=%d %q k=%d: ivf %d hits, flat %d", nseg, q, k, len(ivf), len(flat))
				}
				for i := range flat {
					if ivf[i] != flat[i] {
						t.Fatalf("segs=%d %q k=%d hit %d: ivf %+v, flat %+v", nseg, q, k, i, ivf[i], flat[i])
					}
				}
				if ivfStats.DocsScanned != flatStats.DocsScanned {
					t.Fatalf("segs=%d %q: ivf scanned %d docs, flat %d",
						nseg, q, ivfStats.DocsScanned, flatStats.DocsScanned)
				}
			}
		}
	}
}

// TestVecProbedSearch: with a probe budget, every returned hit carries
// the exact score the exhaustive scan assigns it (probing selects
// candidates, never perturbs scores), fewer docs are scanned, and the
// answer stays byte-identical across partitionings.
func TestVecProbedSearch(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(300, 3)
	probed := Options{Probes: 3}
	a, err := NewSegments(e, partitioned(e, names, texts, 1), probed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSegments(e, partitioned(e, names, texts, 4), probed)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range testQueries {
		flat, flatStats, err := a.SearchFlat(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		exact := map[ir.DocID]float64{}
		for _, h := range flat {
			exact[h.Doc] = h.Score
		}
		hits, stats, err := a.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Probes != 3 {
			t.Fatalf("%q: probed %d lists, want 3", q, stats.Probes)
		}
		if stats.DocsScanned >= flatStats.DocsScanned {
			t.Fatalf("%q: probed scan touched %d docs, exhaustive %d", q, stats.DocsScanned, flatStats.DocsScanned)
		}
		for _, h := range hits {
			if h.Score != exact[h.Doc] {
				t.Fatalf("%q doc %d: probed score %v, exact %v", q, h.Doc, h.Score, exact[h.Doc])
			}
		}
		other, _, err := b.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(other) != len(hits) {
			t.Fatalf("%q: 4-way probed search %d hits, 1-way %d", q, len(other), len(hits))
		}
		for i := range hits {
			if other[i] != hits[i] {
				t.Fatalf("%q hit %d: 4-way %+v, 1-way %+v", q, i, other[i], hits[i])
			}
		}
	}
}

// TestVecSearchPartial: gathering partial answers over an ordinal
// partition reproduces the full scatter byte for byte — the property the
// distributed tier rides.
func TestVecSearchPartial(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(120, 11)
	s, err := NewSegments(e, partitioned(e, names, texts, 4), Options{})
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
	s, err := NewSegments(e, partitioned(e, names, texts, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"", "  ", "..."} {
		if _, _, err := s.Search(q, 5); !errors.Is(err, ir.ErrEmptyQry) {
			t.Fatalf("query %q: err %v, want ErrEmptyQry", q, err)
		}
		if _, _, err := s.SearchFlat(q, 5); !errors.Is(err, ir.ErrEmptyQry) {
			t.Fatalf("flat query %q: err %v, want ErrEmptyQry", q, err)
		}
	}
}

func TestVecDocName(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(57, 5)
	s, err := NewSegments(e, partitioned(e, names, texts, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range names {
		got, err := s.DocName(ir.DocID(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("doc %d: name %q, want %q", i, got, want)
		}
	}
	for _, d := range []ir.DocID{-1, ir.DocID(len(names))} {
		if _, err := s.DocName(d); err == nil {
			t.Fatalf("doc %d: want error", d)
		}
	}
}

// TestVecEmptySegment: zero-document parts compose and search cleanly.
func TestVecEmptySegment(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(20, 9)
	parts := partitioned(e, names, texts, 2)
	parts = append(parts, NewBuilder(e))
	s, err := NewSegments(e, parts, Options{})
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

// TestVecBoundedDepth locks the depth-bounded scan: the full ranking equals
// an independent score-everything-and-sort (the selection this lane used
// before it shared the lexical kernel's heap; the small vocabulary makes
// equal cosines, ordered by DocID), every depth from 1 past the corpus
// returns exactly that ranking's prefix, and SearchScores returns the same
// hits while its leased scores rank every document where the full ranking
// has it — also under a probe budget, where unscanned documents rank 0.
func TestVecBoundedDepth(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(90, 5)
	for _, opts := range []Options{{}, {Probes: 2}} {
		for _, nseg := range []int{1, 2, 3} {
			parts := partitioned(e, names, texts, nseg)
			s, err := NewSegments(e, parts, opts)
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
				if opts.Probes == 0 {
					qv := e.Embed(q)
					var want []ir.Hit
					for pi, b := range parts {
						for i := 0; i < b.Len(); i++ {
							want = append(want, ir.Hit{Doc: s.segs[pi].base + ir.DocID(i), Name: b.Name(i), Score: dot(qv, b.Vec(i))})
						}
					}
					sort.Slice(want, func(i, j int) bool {
						if want[i].Score != want[j].Score {
							return want[i].Score > want[j].Score
						}
						return want[i].Doc < want[j].Doc
					})
					if !reflect.DeepEqual(full, want) {
						t.Fatalf("segs=%d %q: full ranking diverges from the sorted scan", nseg, q)
					}
				}
				rank := map[ir.DocID]int{}
				for i, h := range full {
					rank[h.Doc] = i + 1
				}
				all := make([]ir.Hit, len(names))
				for i := range all {
					all[i].Doc = ir.DocID(i)
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
}

// TestVecSearchAllocs is the allocation lock of the bounded scan: a top-10
// search allocates per query and per segment (analysis, embedding, probe
// set, one hit list and at most one goroutine per leg, the merge; 26 here
// on two cores), never per scanned document — the append-and-sort scan it
// replaced made 74 here. The ceiling leaves room for the race detector,
// under which sync.Pool drops a share of what is put.
func TestVecSearchAllocs(t *testing.T) {
	e := DefaultEmbedder()
	names, texts := synthDocs(2000, 9)
	s, err := NewSegments(e, partitioned(e, names, texts, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const q = "champion final melbourne"
	s.Search(q, 10) // warm the score-array pools
	if allocs := testing.AllocsPerRun(50, func() { s.Search(q, 10) }); allocs > 60 {
		t.Fatalf("Search(q, 10) allocates %.0f times per query, want <= 60", allocs)
	}
}
