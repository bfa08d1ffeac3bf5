package ir

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
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
// SearchScores are Search's, and Ranks places every document of the
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
