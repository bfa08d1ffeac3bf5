// Textsearch demonstrates the scalable full-text layer: BM25 retrieval
// with the top-N optimization (impact-ordered fragmented posting lists with
// safe early termination, and the budgeted quality/time trade-off).
//
// Run: go run ./examples/textsearch
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/ir"
)

func main() {
	log.SetFlags(0)

	// Build a 10k-document corpus with a Zipf vocabulary, the shape of
	// real text.
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.15, 1, 1999)
	ix := ir.NewIndex()
	start := time.Now()
	for d := 0; d < 10000; d++ {
		var sb strings.Builder
		n := 50 + rng.Intn(100)
		for w := 0; w < n; w++ {
			fmt.Fprintf(&sb, "term%d ", zipf.Uint64())
		}
		if _, err := ix.Add(fmt.Sprintf("doc-%05d", d), sb.String()); err != nil {
			log.Fatal(err)
		}
	}
	ix.Freeze()
	fmt.Printf("indexed %d docs, %d terms in %v\n\n",
		ix.Docs(), ix.Terms(), time.Since(start).Round(time.Millisecond))

	query := "term1 term5 term13"

	// Exhaustive BM25.
	start = time.Now()
	full, fullStats, err := ix.Search(query, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exhaustive top-10: %v, %d postings scored\n",
		time.Since(start).Round(time.Microsecond), fullStats.PostingsScored)
	for i, h := range full[:3] {
		fmt.Printf("  %d. %s %.3f\n", i+1, h.Name, h.Score)
	}

	// Safe top-N: provably identical answer, fewer postings.
	start = time.Now()
	opt, optStats, err := ix.SearchTopN(query, 10, ir.TopNOptions{Fragments: 32})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsafe top-N:        %v, %d postings scored (terminated=%v)\n",
		time.Since(start).Round(time.Microsecond), optStats.PostingsScored, optStats.Terminated)
	exhaustive := map[ir.DocID]bool{}
	for _, h := range full {
		exhaustive[h.Doc] = true
	}
	optDocs := make([]ir.DocID, len(opt))
	for i, h := range opt {
		optDocs[i] = h.Doc
	}
	fmt.Printf("P@10 against exhaustive: %.3f\n", eval.AtK(optDocs, exhaustive, 10).Precision())

	// The quality/time trade-off: stop after a budget of fragment rounds.
	fmt.Println("\nbudgeted quality/time trade-off:")
	fmt.Printf("%-8s %10s %10s\n", "rounds", "postings", "quality")
	for _, budget := range []int{1, 2, 4, 8, 16, 32} {
		approx, st, err := ix.SearchTopN(query, 10, ir.TopNOptions{Fragments: 32, MaxFragments: budget})
		if err != nil {
			log.Fatal(err)
		}
		q, err := ir.ScoreQuality(ix, query, 10, approx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %10d %10.3f\n", budget, st.PostingsScored, q)
	}

	// Conjunctive boolean retrieval is there too.
	docs, err := ix.SearchBoolean("term1 term13")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nboolean AND: %d documents contain both terms\n", len(docs))
}
