package ir

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// randomCollection builds a segmented collection from rng, heap-built and
// mapped: one to four segments, most of one to 60 documents and one in four
// of 500 to 800, over a twelve-word vocabulary every document draws from, a
// 40-word one that half the documents draw one word from, and "zall" on
// every document, with duplicate documents across segments — ties at every
// depth. So its lists fall on both sides of the format's one-sixteenth rule
// and some are full, and the large segments' bitmaps hold rank samples. It
// returns the collection and queries of one to four terms, known and
// unknown.
func randomCollection(t testing.TB, rng *rand.Rand) (heap, mapped *Segments, queries []string) {
	t.Helper()
	parts := make([]*Index, 1+rng.Intn(4))
	var texts []string
	for s := range parts {
		parts[s] = NewIndex()
		n := 1 + rng.Intn(60)
		if rng.Intn(4) == 0 {
			n = 500 + rng.Intn(300)
		}
		for d := 0; d < n; d++ {
			var sb strings.Builder
			sb.WriteString("zall")
			for w, words := 0, rng.Intn(12); w < words; w++ {
				fmt.Fprintf(&sb, " w%d", rng.Intn(12))
			}
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&sb, " r%d", rng.Intn(40))
			}
			text := sb.String()
			if len(texts) > 0 && rng.Intn(5) == 0 {
				text = texts[rng.Intn(len(texts))] // a duplicate: an exact tie
			}
			texts = append(texts, text)
			if _, err := parts[s].Add(fmt.Sprintf("s%d-d%d", s, d), text); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap, err := NewSegments(parts)
	if err != nil {
		t.Fatal(err)
	}
	if mapped, err = openSegmentsBytes(segfileBytes(t, heap, 0), 0); err != nil {
		t.Fatal(err)
	}
	queries = []string{"zall", "zall w0", "w1 zall w2", "nosuch w3", "r1 w4 zall"}
	for i := 0; i < 6; i++ {
		var q []string
		for j := 0; j <= rng.Intn(4); j++ {
			if rng.Intn(2) == 0 {
				q = append(q, fmt.Sprintf("w%d", rng.Intn(14)))
			} else {
				q = append(q, fmt.Sprintf("r%d", rng.Intn(42)))
			}
		}
		queries = append(queries, strings.Join(q, " "))
	}
	return heap, mapped, queries
}

// denseSearch is the dense kernel over the named segments: every posting
// of every query term scored, in term order, into one accumulator per
// segment (scoreTerms), each leg's top k merged. It returns the hits, the
// postings scored, the documents touched and every scored document, best
// first.
func denseSearch(t testing.TB, s *Segments, query string, k int, ords []int) ([]Hit, int, int, []Hit) {
	t.Helper()
	terms := dedupe(Analyze(query))
	var per [][]Hit
	var all []Hit
	postings, touched := 0, 0
	for _, o := range ords {
		ix := s.segs[o]
		ac := ix.getAccum()
		st, err := ix.scoreTerms(terms, ac, nil)
		if err != nil {
			t.Fatal(err)
		}
		postings += st.PostingsScored
		touched += st.DocsTouched
		hits := ix.topKDense(ac, 0)
		ac.Release()
		for i := range hits {
			hits[i].Doc += DocID(s.bases.Start(o))
		}
		all = append(all, hits...)
		if k > 0 && len(hits) > k {
			hits = hits[:k]
		}
		per = append(per, hits)
	}
	sort.Slice(all, func(a, b int) bool { return worseHit(all[b], all[a]) })
	return MergeHits(per, k), postings, touched, all
}

// checkTopK holds the top-k kernel to the dense one on one query: at each
// depth, over all segments and over a random selection, the same hits with
// the same names and score bits, the same total, at most as many postings;
// and the score handle's Ranks and Get over the selection equal the dense
// ranking's for documents scored, unscored, out of range and of unselected
// segments.
func checkTopK(t *testing.T, s *Segments, q string, rng *rand.Rand) {
	t.Helper()
	if len(dedupe(Analyze(q))) == 0 {
		return
	}
	ords := s.bases.Ords()
	sel := []int{}
	for _, o := range ords {
		if rng.Intn(2) == 0 {
			sel = append(sel, o)
		}
	}
	if len(sel) == 0 {
		sel = ords[:1]
	}
	for _, pick := range [][]int{ords, sel} {
		for _, k := range []int{1, 2, 3, 5, 10, 50, 0} {
			want, postings, total, _ := denseSearch(t, s, q, k, pick)
			got, stats, _, err := s.SearchSegments(q, k, pick)
			if err != nil {
				t.Fatalf("q=%q k=%d ords=%v: %v", q, k, pick, err)
			}
			if len(got) != len(want) || stats.DocsTouched != total || stats.PostingsScored > postings {
				t.Fatalf("q=%q k=%d ords=%v: %d hits, total %d, %d postings; dense %d, %d, %d",
					q, k, pick, len(got), stats.DocsTouched, stats.PostingsScored, len(want), total, postings)
			}
			for i := range want {
				if got[i].Doc != want[i].Doc || got[i].Name != want[i].Name ||
					math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("q=%q k=%d ords=%v hit %d: %+v, dense %+v", q, k, pick, i, got[i], want[i])
				}
			}
		}
	}
	_, _, _, ranked := denseSearch(t, s, q, 0, sel)
	ranks, scores := map[DocID]int{}, map[DocID]float64{}
	for i, h := range ranked {
		ranks[h.Doc], scores[h.Doc] = i+1, h.Score
	}
	probe := []Hit{{Doc: -1}, {Doc: DocID(s.Docs())}}
	for i := 0; i < 12; i++ {
		probe = append(probe, Hit{Doc: DocID(rng.Intn(s.Docs()))})
	}
	for d := range ranks {
		if rng.Intn(3) == 0 {
			probe = append(probe, Hit{Doc: d})
		}
	}
	sc, _, err := s.ScoreSegments(q, sel)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Release()
	got := sc.Ranks(probe)
	for i, h := range probe {
		if got[i] != ranks[h.Doc] {
			t.Fatalf("q=%q ords=%v doc %d: rank %d, dense %d", q, sel, h.Doc, got[i], ranks[h.Doc])
		}
		if g := sc.Get(h.Doc); math.Float64bits(g) != math.Float64bits(scores[h.Doc]) {
			t.Fatalf("q=%q ords=%v doc %d: score %v, dense %v", q, sel, h.Doc, g, scores[h.Doc])
		}
	}
}

// TestTopKMatchesDense is the top-k kernel's acceptance lock, modelled on
// TestKernelMatchesFlatImpacts: over random segmented collections,
// heap-built and mapped, with ties and a term on every document, the
// pruned kernel returns the dense kernel's hits, score bits and totals, and
// the rank count over a selection the dense ranking's ranks.
//
// The collections hold every kind of list the format stores, and bitmaps
// with rank samples.
func TestTopKMatchesDense(t *testing.T) {
	kinds := map[listKind]int{}
	sampled := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		heap, mapped, queries := randomCollection(t, rng)
		for _, ix := range heap.segs {
			for o := range ix.dict.Len() {
				kinds[ix.list(o).kind]++
			}
			sampled += ix.ranks.len()
		}
		for _, s := range []*Segments{heap, mapped} {
			for _, q := range queries {
				checkTopK(t, s, q, rng)
			}
		}
	}
	if kinds[sparseList] == 0 || kinds[bitmapList] == 0 || kinds[fullList] == 0 || sampled == 0 {
		t.Fatalf("lists by kind %v, %d rank samples: want every kind and some samples", kinds, sampled)
	}
}

// TestTopKPrunes: with a term on every document beside a rarer one — the
// shape of a keyword page whose first word is on every player page — a
// ten-item page reads less than half the postings the dense kernel scores
// and says it stopped early.
func TestTopKPrunes(t *testing.T) {
	docs := segCorpus(2000)
	for i := range docs {
		docs[i] = "zall " + docs[i]
	}
	s := buildSegs(t, docs, 2)
	const q = "zall w7"
	want, postings, total, _ := denseSearch(t, s, q, 10, s.bases.Ords())
	got, stats, err := s.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got[0] != want[0] || stats.DocsTouched != total {
		t.Fatalf("top hit %+v of %d, total %d; dense %+v of %d, total %d", got[0], len(got), stats.DocsTouched, want[0], len(want), total)
	}
	if !stats.Terminated || 2*stats.PostingsScored > postings {
		t.Fatalf("the kernel read %d of %d postings (terminated %v), want at most half", stats.PostingsScored, postings, stats.Terminated)
	}
}

// FuzzTopKMatchesDense drives checkTopK over collections and queries drawn
// from the fuzzer's seed.
func FuzzTopKMatchesDense(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		heap, mapped, queries := randomCollection(t, rng)
		for _, s := range []*Segments{heap, mapped} {
			for _, q := range queries {
				checkTopK(t, s, q, rng)
			}
		}
	})
}

// TestTopKConcurrentChecks: queries racing on a mapped collection, through
// the top-k kernel and the dense scan, verify each list once between them
// (checkList's bits) and all answer as the heap build does. Run it under
// -race.
func TestTopKConcurrentChecks(t *testing.T) {
	heap := buildSegs(t, segCorpus(300), 3)
	mapped, err := openSegmentsBytes(segfileBytes(t, heap, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"w0 w1", "w3 w17 w200", "w5 w12", "w1 w2 w3 w4"}
	want := make([][]Hit, len(queries))
	for i, q := range queries {
		if want[i], _, err = heap.Search(q, 5); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range queries {
				q := queries[(i+g)%len(queries)]
				got, _, err := mapped.Search(q, 5)
				if err != nil || !reflect.DeepEqual(got, want[(i+g)%len(queries)]) {
					t.Errorf("q=%q: %v, %v; heap %v", q, got, err, want[(i+g)%len(queries)])
				}
				sc, _, err := mapped.ScoreSegments(q, nil)
				if err != nil {
					t.Error(err)
					continue
				}
				for j, r := range sc.Ranks(got) {
					if r != j+1 {
						t.Errorf("q=%q: hit %d ranks %d", q, j, r)
					}
				}
				sc.Release()
			}
		}(g)
	}
	wg.Wait()
}
