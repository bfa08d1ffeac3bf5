package ir

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/segset"
)

// kernelQueries mixes list lengths: frequent terms (long lists), rare
// terms, unknown terms, single- and many-term queries.
var kernelQueries = []string{
	"w0", "w1", "w0 w1", "w0 w1 w2", "w3 w7 w13",
	"w1 nosuchterm w3", "w0 w2 w4 w8 w16 w32 w64", "w111",
}

// TestKernelMatchesMapReference locks the tentpole invariant: the dense
// epoch-stamped kernel returns byte-identical hit lists — same documents,
// same float64 scores, same tie-breaks — to the retained map-based
// reference scorer, for every query shape and k.
func TestKernelMatchesMapReference(t *testing.T) {
	ix := synthCorpus(t, 3000, 400, 41)
	for _, q := range kernelQueries {
		for _, k := range []int{0, 1, 5, 10, 100, 5000} {
			ref, refStats, refErr := ix.searchMapReference(q, k)
			got, gotStats, gotErr := ix.Search(q, k)
			if (refErr != nil) != (gotErr != nil) {
				t.Fatalf("q=%q k=%d: err %v (kernel) vs %v (reference)", q, k, gotErr, refErr)
			}
			if len(got) != len(ref) {
				t.Fatalf("q=%q k=%d: %d hits (kernel) vs %d (reference)", q, k, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("q=%q k=%d hit %d: %+v (kernel) vs %+v (reference)", q, k, i, got[i], ref[i])
				}
			}
			if gotStats != refStats {
				t.Fatalf("q=%q k=%d: stats %+v (kernel) vs %+v (reference)", q, k, gotStats, refStats)
			}
		}
	}
}

// TestImpactMatchesFormula: the impact vectors built at Freeze must be the
// reference BM25 formula evaluated per posting, rounded once to float32 —
// for both posting orders, the impact order SearchTopN derives being a
// TF-descending permutation of the doc order that keeps equal TFs in doc
// order.
func TestImpactMatchesFormula(t *testing.T) {
	ix := synthCorpus(t, 500, 100, 7)
	lists := ix.impactLists()
	for o := 0; o < ix.dict.Len(); o++ {
		term := ix.dict.At(o)
		post, imps := ix.postings(o)
		for i, p := range post {
			want := float32(ix.bm25(term, p))
			if imps[i] != want {
				t.Fatalf("term %q docOrder[%d]: impact %v, formula %v", term, i, imps[i], want)
			}
		}
		il := lists[o]
		if len(il.list) != len(post) {
			t.Fatalf("term %q: %d impact-ordered postings, %d doc-ordered", term, len(il.list), len(post))
		}
		for i, p := range il.list {
			want := float32(ix.bm25(term, p))
			if il.imp[i] != want {
				t.Fatalf("term %q impact order[%d]: impact %v, formula %v", term, i, il.imp[i], want)
			}
			if i > 0 {
				if q := il.list[i-1]; q.TF < p.TF || q.TF == p.TF && q.Doc >= p.Doc {
					t.Fatalf("term %q impact order[%d]: %+v after %+v", term, i, p, q)
				}
			}
		}
	}
}

// TestKernelTieBreaks: documents with exactly equal scores must come back
// in ascending DocID order through the bounded-heap selection, including
// at the truncation boundary.
func TestKernelTieBreaks(t *testing.T) {
	ix := NewIndex()
	// Identical documents score identically: all ties.
	for d := 0; d < 12; d++ {
		if _, err := ix.Add(fmt.Sprintf("tie%02d", d), "alpha beta gamma"); err != nil {
			t.Fatal(err)
		}
	}
	ix.Freeze()
	for _, k := range []int{0, 1, 5, 12, 40} {
		hits, _, err := ix.Search("alpha", k)
		if err != nil {
			t.Fatal(err)
		}
		want := 12
		if k > 0 && k < want {
			want = k
		}
		if len(hits) != want {
			t.Fatalf("k=%d: %d hits, want %d", k, len(hits), want)
		}
		for i := range hits {
			if hits[i].Doc != DocID(i) {
				t.Fatalf("k=%d: tie order %v", k, hits)
			}
			if hits[i].Score != hits[0].Score {
				t.Fatalf("k=%d: unequal tie scores %v", k, hits)
			}
		}
	}
}

// TestSearchAllocs is the allocation regression guard for the tentpole:
// steady-state ranked queries must not allocate per-doc state. What remains
// is query analysis (a few token strings) and the returned hit slice; the
// pre-kernel scorer burned ~150 allocations and ~1.8 MB per query on the
// 20k-doc corpus.
func TestSearchAllocs(t *testing.T) {
	ix := synthCorpus(t, 4000, 300, 19)
	// Warm the accumulator pool.
	if _, _, err := ix.Search("w0 w1", 10); err != nil {
		t.Fatal(err)
	}
	const budget = 16
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := ix.Search("w0 w1", 10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("Search allocates %.1f objects/query, budget %d", allocs, budget)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if _, _, err := ix.SearchTopN("w0 w1", 10, TopNOptions{Fragments: 16}); err != nil {
			t.Fatal(err)
		}
	})
	// SearchTopN additionally allocates its per-term states.
	if allocs > budget+8 {
		t.Fatalf("SearchTopN allocates %.1f objects/query, budget %d", allocs, budget+8)
	}
}

// TestDedupeManyTerms exercises the set path of dedupe (the small-query
// linear scan switches to a set past the threshold) and the order/identity
// contract on both sides of the switch.
func TestDedupeManyTerms(t *testing.T) {
	var in []string
	var want []string
	for i := 0; i < 400; i++ {
		term := fmt.Sprintf("t%03d", i)
		in = append(in, term, term) // adjacent duplicate
		if i%3 == 0 {
			in = append(in, "t000") // long-range duplicate
		}
		want = append(want, term)
	}
	got := dedupe(in)
	if len(got) != len(want) {
		t.Fatalf("dedupe kept %d terms, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("term %d: %q, want %q (first-occurrence order lost)", i, got[i], want[i])
		}
	}
	// Small path: under the threshold, still exact.
	small := dedupe([]string{"b", "a", "b", "c", "a"})
	if len(small) != 3 || small[0] != "b" || small[1] != "a" || small[2] != "c" {
		t.Fatalf("small dedupe = %v", small)
	}
	if out := dedupe(nil); len(out) != 0 {
		t.Fatalf("nil dedupe = %v", out)
	}
}

// TestManyTermQuery runs a query wide enough to cross the dedupe set
// threshold end-to-end and cross-checks the kernel against the reference.
func TestManyTermQuery(t *testing.T) {
	ix := synthCorpus(t, 800, 200, 31)
	var sb strings.Builder
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&sb, "w%d w%d ", i, i%7) // heavy duplication
	}
	q := sb.String()
	ref, refStats, err := ix.searchMapReference(q, 25)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := ix.Search(q, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) || gotStats != refStats {
		t.Fatalf("many-term query: %d hits/%+v (kernel) vs %d/%+v (reference)",
			len(got), gotStats, len(ref), refStats)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("many-term hit %d: %+v vs %+v", i, got[i], ref[i])
		}
	}
}

// TestAccumEpochWrap: after a uint32 epoch wrap the accumulator must not
// resurrect stale scores.
func TestAccumEpochWrap(t *testing.T) {
	ac := NewAccum(4, nil)
	ac.Begin()
	ac.Add(2, 1.5)
	ac.epoch = math.MaxUint32 // force the next begin to wrap
	ac.Begin()
	if got := ac.Get(2); got != 0 {
		t.Fatalf("score resurrected across epoch wrap: %v", got)
	}
	ac.Add(1, 2.5)
	if ac.Get(1) != 2.5 || len(ac.touched) != 1 {
		t.Fatalf("post-wrap accumulation broken: %v %v", ac.Get(1), ac.touched)
	}
}

// TestTopKDenseEmptyAndOversized covers the k edge cases through the public
// API: empty result sets stay empty (non-nil like the reference), k beyond
// the touched count returns everything.
func TestTopKDenseEmptyAndOversized(t *testing.T) {
	ix := buildSmallIndex(t)
	hits, _, err := ix.Search("zeppelin", 5)
	if err != nil {
		t.Fatal(err)
	}
	if hits == nil || len(hits) != 0 {
		t.Fatalf("unknown-term hits = %#v", hits)
	}
	all, _, err := ix.Search("tennis", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("oversized k hits = %v", all)
	}
}

// flatPosting is one posting of flatOracle: a document and its own float32
// impact.
type flatPosting struct {
	doc DocID
	imp float32
}

// flatOracle is the text lane's layout before books (format 3): every
// posting keeps its own float32 impact. It is built here from each
// document's analyzed tokens and the union collection statistics, with
// BM25's formula, independently of Freeze.
type flatOracle struct {
	bases segset.Bases
	names [][]string
	post  []map[string][]flatPosting // by segment, term
}

func newFlatOracle(segDocs [][]string) *flatOracle {
	o := &flatOracle{}
	var sizes []int
	var docs int
	var totalLn int64
	df := map[string]int{}
	toks := make([][][]string, len(segDocs))
	for s, texts := range segDocs {
		sizes = append(sizes, len(texts))
		for _, text := range texts {
			ts := Analyze(text)
			toks[s] = append(toks[s], ts)
			docs++
			totalLn += int64(len(ts))
			for _, term := range dedupe(append([]string(nil), ts...)) {
				df[term]++
			}
		}
	}
	avg := float64(totalLn) / float64(docs)
	o.bases = segset.NewBases(sizes)
	for s, seg := range toks {
		post := map[string][]flatPosting{}
		var names []string
		for d, ts := range seg {
			names = append(names, fmt.Sprintf("s%d-d%d", s, d))
			tf := map[string]int{}
			for _, term := range ts {
				tf[term]++
			}
			dl := float64(len(ts))
			for term, n := range tf {
				idf, f := idfFor(docs, df[term]), float64(n)
				imp := float32(idf * f * (bm25K1 + 1) / (f + bm25K1*(1-bm25B+bm25B*dl/avg)))
				post[term] = append(post[term], flatPosting{DocID(d), imp})
			}
		}
		o.names = append(o.names, names)
		o.post = append(o.post, post)
	}
	return o
}

// search scores every posting of every query term, in term order, one
// accumulator per segment, and returns the top k hits, the documents
// touched, and every scored document's 1-based rank.
func (o *flatOracle) search(query string, k int) ([]Hit, int, map[DocID]int) {
	terms := dedupe(Analyze(query))
	var per [][]Hit
	var all []Hit
	touched := 0
	for s, post := range o.post {
		ac := NewAccum(len(o.names[s]), &sync.Pool{})
		ac.Begin()
		for _, term := range terms {
			for _, p := range post[term] {
				ac.Add(p.doc, float64(p.imp))
			}
		}
		touched += ac.Touched()
		base := DocID(o.bases.Start(s))
		hits := ac.TopK(0)
		for i := range hits {
			hits[i].Name = o.names[s][hits[i].Doc]
			hits[i].Doc += base
		}
		all = append(all, hits...)
		if k > 0 && len(hits) > k {
			hits = hits[:k]
		}
		per = append(per, hits)
	}
	sort.Slice(all, func(a, b int) bool { return worseHit(all[b], all[a]) })
	ranks := map[DocID]int{}
	for i, h := range all {
		ranks[h.Doc] = i + 1
	}
	return MergeHits(per, k), touched, ranks
}

// TestKernelMatchesFlatImpacts holds the book kernel to the per-posting
// impacts it replaced: over random segmented collections, heap-built and
// mapped, Search returns flatOracle's hits with the same score bits and
// documents touched, and ScoreQuery ranks every probed document as the
// oracle does. Each collection holds a term on every document at more than
// 256 lengths in its first segment (u16 codes), a TF past 255 (u16 book
// TFs), and duplicate documents (ties).
func TestKernelMatchesFlatImpacts(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		segDocs := make([][]string, 1+rng.Intn(4))
		for s := range segDocs {
			n := 1 + rng.Intn(120)
			if s == 0 {
				n = 270 + rng.Intn(30)
			}
			for d := 0; d < n; d++ {
				var sb strings.Builder
				sb.WriteString("zall")
				// The first segment's documents have distinct lengths.
				words := rng.Intn(60)
				if s == 0 {
					words = d
				}
				for w := 0; w < words; w++ {
					fmt.Fprintf(&sb, " w%d", rng.Intn(40))
				}
				segDocs[s] = append(segDocs[s], sb.String())
			}
		}
		last := len(segDocs) - 1
		segDocs[last][0] += strings.Repeat(" zhot", 256+rng.Intn(40))
		for i := 0; i < 4; i++ { // duplicates, across segments too
			a, b := rng.Intn(len(segDocs)), rng.Intn(len(segDocs))
			segDocs[a][rng.Intn(len(segDocs[a]))] = segDocs[b][rng.Intn(len(segDocs[b]))]
		}
		parts := make([]*Index, len(segDocs))
		for s, texts := range segDocs {
			parts[s] = NewIndex()
			for d, text := range texts {
				if _, err := parts[s].Add(fmt.Sprintf("s%d-d%d", s, d), text); err != nil {
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
		oracle := newFlatOracle(segDocs)
		if w := heap.segs[0].codes.width(); w != 2 {
			t.Fatalf("seed %d: the first segment stores %d-byte codes, want 2", seed, w)
		}
		queries := []string{"zall", "zhot", "zall zhot w1", "nosuch w5", "w3 zall w3"}
		for i := 0; i < 12; i++ {
			var q []string
			for j := 0; j <= rng.Intn(4); j++ {
				q = append(q, fmt.Sprintf("w%d", rng.Intn(45)))
			}
			queries = append(queries, strings.Join(q, " "))
		}
		for _, s := range []*Segments{heap, mapped} {
			if w := s.segs[last].bookTF.width(); w != 2 {
				t.Fatalf("seed %d: the last segment stores %d-byte book TFs, want 2", seed, w)
			}
			for _, q := range queries {
				for _, k := range []int{0, 1, 10, 50} {
					want, touched, _ := oracle.search(q, k)
					got, stats, err := s.Search(q, k)
					if err != nil {
						t.Fatalf("seed %d q=%q: %v", seed, q, err)
					}
					if len(got) != len(want) || stats.DocsTouched != touched {
						t.Fatalf("seed %d q=%q k=%d: %d hits, %d touched; oracle %d, %d", seed, q, k, len(got), stats.DocsTouched, len(want), touched)
					}
					for i := range want {
						if got[i].Doc != want[i].Doc || got[i].Name != want[i].Name ||
							math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
							t.Fatalf("seed %d q=%q k=%d hit %d: %+v, oracle %+v", seed, q, k, i, got[i], want[i])
						}
					}
				}
				_, _, ranks := oracle.search(q, 0)
				probe := []Hit{{Doc: -1}, {Doc: DocID(s.Docs())}}
				for i := 0; i < 20; i++ {
					probe = append(probe, Hit{Doc: DocID(rng.Intn(s.Docs()))})
				}
				sc, _, err := s.ScoreQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range sc.Ranks(probe) {
					if r != ranks[probe[i].Doc] {
						t.Fatalf("seed %d q=%q doc %d: rank %d, oracle %d", seed, q, probe[i].Doc, r, ranks[probe[i].Doc])
					}
				}
				sc.Release()
			}
		}
	}
}
