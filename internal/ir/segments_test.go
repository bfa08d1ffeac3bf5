package ir

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/segset"
)

// segCorpus builds a deterministic synthetic corpus: docs[i] is the text of
// document i. A few documents are exact duplicates so equal scores exercise
// the cross-segment DocID tie-break.
func segCorpus(n int) []string {
	rng := rand.New(rand.NewSource(41))
	docs := make([]string, n)
	for i := range docs {
		var sb strings.Builder
		for w := 0; w < 30+rng.Intn(40); w++ {
			fmt.Fprintf(&sb, "w%d ", rng.Intn(300))
		}
		docs[i] = sb.String()
	}
	// Duplicates scattered across the corpus: identical analyzed content
	// yields identical BM25 scores, so only the DocID tie-break orders them.
	for i := 10; i < n; i += 37 {
		docs[i] = docs[3]
	}
	return docs
}

// buildMono indexes the corpus into one frozen monolithic index.
func buildMono(t testing.TB, docs []string) *Index {
	t.Helper()
	ix := NewIndex()
	for i, d := range docs {
		if _, err := ix.Add(fmt.Sprintf("doc-%03d", i), d); err != nil {
			t.Fatal(err)
		}
	}
	ix.Freeze()
	return ix
}

// buildSegs splits the corpus into nseg contiguous parts and builds the
// scatter-gather reader over them.
func buildSegs(t testing.TB, docs []string, nseg int) *Segments {
	t.Helper()
	parts := make([]*Index, nseg)
	for i := range parts {
		parts[i] = NewIndex()
	}
	per := (len(docs) + nseg - 1) / nseg
	for i, d := range docs {
		p := i / per
		if p >= nseg {
			p = nseg - 1
		}
		if _, err := parts[p].Add(fmt.Sprintf("doc-%03d", i), d); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := NewSegments(parts)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

var segQueries = []string{
	"w0 w1",
	"w3 w17 w200",
	"w299",
	"w5 w5 w5 w12",
	"zzz unknown terms",
	"w0 w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11",
}

// TestSegmentsMatchMonolithic is the acceptance lock of the segmented IR
// reader: for the same corpus, a 1-, 2-, 3-, and 7-way segmented search is
// byte-identical to the monolithic index's full scan — same hits, same
// float64 scores, same tie-breaks, same matched terms and total — for both
// full and top-k ranking. The segments rank with the top-k kernel, so they
// score at most the full scan's postings, and fewer exactly when they
// report early termination.
func TestSegmentsMatchMonolithic(t *testing.T) {
	docs := segCorpus(200)
	mono := buildMono(t, docs)
	for _, nseg := range []int{1, 2, 3, 7} {
		segs := buildSegs(t, docs, nseg)
		t.Run(fmt.Sprintf("segs=%d", nseg), func(t *testing.T) {
			if segs.Docs() != mono.Docs() {
				t.Fatalf("docs: %d != %d", segs.Docs(), mono.Docs())
			}
			for _, q := range segQueries {
				for _, k := range []int{0, 1, 5, 1000} {
					want, wantStats, wantErr := mono.Search(q, k)
					got, gotStats, gotErr := segs.Search(q, k)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("q=%q k=%d: err %v vs %v", q, k, wantErr, gotErr)
					}
					if wantErr != nil {
						continue
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("q=%q k=%d: hits diverge\nmono: %v\nsegs: %v", q, k, want, got)
					}
					if wantStats.TermsMatched != gotStats.TermsMatched || wantStats.DocsTouched != gotStats.DocsTouched ||
						gotStats.PostingsScored > wantStats.PostingsScored ||
						gotStats.Terminated != (gotStats.PostingsScored < wantStats.PostingsScored) {
						t.Fatalf("q=%q k=%d: stats %+v vs %+v", q, k, wantStats, gotStats)
					}
				}
			}
		})
	}
}

// TestSegmentsTermsMatchedPastOneWord: a query of more distinct terms than
// one word of a leg's term mask holds, some known to only a few segments and
// some to none, counts the same matched terms segmented as monolithic.
func TestSegmentsTermsMatchedPastOneWord(t *testing.T) {
	docs := segCorpus(200)
	docs[0] += " rare-a"
	docs[199] += " rare-b"
	mono := buildMono(t, docs)
	segs := buildSegs(t, docs, 7)
	var q strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&q, "w%d absent%d ", i*3, i)
	}
	q.WriteString("rare-a rare-b")
	_, want, err := mono.Search(q.String(), 10)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := segs.Search(q.String(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if got.TermsMatched != want.TermsMatched || want.TermsMatched < 65 {
		t.Fatalf("TermsMatched %d segmented, %d monolithic (want > 64)", got.TermsMatched, want.TermsMatched)
	}
}

// TestSegScoresMatchMonolithic locks the ranking-free join path: per-doc
// scores from the segmented handle equal the monolithic ranked search's for
// every document in the collection, and zero for the ones it never touched.
func TestSegScoresMatchMonolithic(t *testing.T) {
	docs := segCorpus(150)
	mono := buildMono(t, docs)
	segs := buildSegs(t, docs, 4)
	for _, q := range segQueries {
		hits, mStats, mErr := mono.Search(q, 0)
		ss, sStats, sErr := segs.ScoreQuery(q)
		if (mErr == nil) != (sErr == nil) {
			t.Fatalf("q=%q: err %v vs %v", q, mErr, sErr)
		}
		if mErr != nil {
			continue
		}
		if mStats != sStats {
			t.Fatalf("q=%q: stats %+v vs %+v", q, mStats, sStats)
		}
		byDoc := make(map[DocID]float64, len(hits))
		for _, h := range hits {
			byDoc[h.Doc] = h.Score
		}
		for d := DocID(0); int(d) < len(docs); d++ {
			if m, s := byDoc[d], ss.Get(d); m != s {
				t.Fatalf("q=%q doc %d: score %v vs %v", q, d, m, s)
			}
		}
		ss.Release()
	}
}

// TestSearchScoresRanks locks what the hybrid fusion builds on: the hits of
// SearchScores, once named, are Search's, and Ranks places every document of the
// collection exactly where the full ranking has it (duplicates included,
// so equal scores order by DocID) and reports 0 for the ones the query
// never touched — at 1, 2, 3 and 7 segments, listed in any order.
func TestSearchScoresRanks(t *testing.T) {
	docs := segCorpus(200)
	all := make([]Hit, len(docs)+2)
	for i := range all {
		all[i].Doc = DocID(len(docs) - i) // one past the end, descending to -1
	}
	for _, nseg := range []int{1, 2, 3, 7} {
		segs := buildSegs(t, docs, nseg)
		for _, q := range segQueries {
			full, fullStats, err := segs.Search(q, 0)
			if err != nil {
				if _, _, _, err2 := segs.SearchScores(q, 5); err2 != err {
					t.Fatalf("q=%q: SearchScores error %v, Search %v", q, err2, err)
				}
				continue
			}
			want := map[DocID]int{}
			for i, h := range full {
				want[h.Doc] = i + 1
			}
			for _, k := range []int{0, 1, 5, 1000} {
				hits, scores, stats, err := segs.SearchScores(q, k)
				if err != nil {
					t.Fatal(err)
				}
				top, _, _ := segs.Search(q, k)
				segs.nameHits(hits)
				if !reflect.DeepEqual(hits, top) || stats != fullStats {
					t.Fatalf("segs=%d q=%q k=%d: SearchScores hits/stats diverge from Search", nseg, q, k)
				}
				for i, r := range scores.Ranks(all) {
					if r != want[all[i].Doc] {
						t.Fatalf("segs=%d q=%q k=%d: doc %d rank %d, want %d", nseg, q, k, all[i].Doc, r, want[all[i].Doc])
					}
				}
				scores.Release()
			}
		}
	}
}

// TestRanksMatchFullRanking: over random leased scores with few distinct
// values, so that most scored documents tie with a candidate, in segments
// of which some are empty or unscored, Ranks places every listed document —
// scored or not, listed twice, out of range — where a full sort of every
// scored document under (score desc, DocID asc) puts it.
func TestRanksMatchFullRanking(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]int, 1+rng.Intn(4))
		for i := range sizes {
			sizes[i] = rng.Intn(50)
		}
		bases := segset.NewBases(sizes)
		acs := make([]*Accum, len(sizes))
		var scored []Hit
		for o, n := range sizes {
			if rng.Intn(5) == 0 {
				continue // a segment the query did not score
			}
			ac := NewAccum(n, &sync.Pool{})
			ac.Begin()
			for _, d := range rng.Perm(n) { // touched in any order
				if rng.Intn(3) > 0 {
					s := float64(rng.Intn(4)) / 2
					ac.Add(DocID(d), s)
					scored = append(scored, Hit{Doc: DocID(bases.Start(o) + d), Score: s})
				}
			}
			acs[o] = ac
		}
		sort.Slice(scored, func(a, b int) bool { return worseHit(scored[b], scored[a]) })
		want := map[DocID]int{}
		for i, h := range scored {
			want[h.Doc] = i + 1
		}
		listed := make([]Hit, rng.Intn(30))
		for i := range listed {
			listed[i].Doc = DocID(rng.Intn(bases.Total()+2) - 1) // -1 … one past the end
		}
		sc := LeaseScores(bases, acs)
		for i, r := range sc.Ranks(listed) {
			if d := listed[i].Doc; r != want[d] {
				t.Fatalf("seed %d: doc %d ranks %d, the full ranking has it at %d", seed, d, r, want[d])
			}
		}
		sc.Release()
	}
}

// TestNewSegmentsRejects locks the construction contract.
func TestNewSegmentsRejects(t *testing.T) {
	if _, err := NewSegments(nil); err == nil {
		t.Fatal("empty segment list accepted")
	}
	if _, err := NewSegments([]*Index{nil}); err == nil {
		t.Fatal("nil segment accepted")
	}
	frozen := NewIndex()
	frozen.Freeze()
	if _, err := NewSegments([]*Index{frozen}); err == nil {
		t.Fatal("pre-frozen segment accepted")
	}
}
