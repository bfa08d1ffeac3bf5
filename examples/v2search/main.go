// V2search demonstrates the unified v2 query API of the public facade:
// one Search entrypoint covering all query forms, deterministic cursor
// pagination, a pull-based streaming iterator, explain plans, and hot
// index swapping.
//
// Run: go run ./examples/v2search
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	repro "repro"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	site, err := repro.GenerateSite(repro.SiteConfig{
		Players: 48, YearStart: 1996, YearEnd: 2001, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}
	dl, err := repro.NewDigitalLibrary(site, nil)
	if err != nil {
		log.Fatal(err)
	}

	// One entrypoint, four query forms. Page through a combined query two
	// results at a time; the cursor walk reproduces the unpaginated answer
	// exactly.
	q := repro.Query{Source: `find Player where exists wonFinals rank "dream childhood crowd" via interviews`}
	fmt.Println("combined query, pages of 2:")
	cursor := repro.Cursor("")
	for page := 1; ; page++ {
		rs, err := dl.Search(ctx, q, repro.WithLimit(2), repro.WithCursor(cursor))
		if err != nil {
			log.Fatal(err)
		}
		for _, it := range rs.Items {
			fmt.Printf("  page %d: %-24s score=%.3f\n", page, it.Object.StringAttr("name"), it.Score)
		}
		if rs.Cursor == "" {
			fmt.Printf("  (%d results total, snapshot %d)\n\n", rs.Total, rs.Snapshot)
			break
		}
		cursor = rs.Cursor
	}

	// The streaming iterator pulls the remainder of a large answer without
	// page bookkeeping.
	kw, err := dl.Search(ctx, repro.Query{Keyword: "champion final melbourne"}, repro.WithLimit(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("keyword stream (%d hits):\n", kw.Total)
	n := 0
	for st := kw.Stream(); ; {
		it, ok := st.Next()
		if !ok {
			break
		}
		if n < 4 {
			fmt.Printf("  %-40s %.3f\n", it.Page, it.Score)
		}
		n++
	}
	fmt.Printf("  ... streamed %d items\n\n", n)

	// Explain plans expose the operator DAG with timings and kernel stats.
	ex, err := dl.Search(ctx, q, repro.WithExplain())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("explain: %s\n", ex.Explain.Plan)
	for _, op := range ex.Explain.Ops {
		fmt.Printf("  %-8s %10v  %d items\n", op.Op, op.Duration, op.Items)
	}
	fmt.Println()

	// Typed errors make failures programmable.
	if _, err := dl.Search(ctx, repro.Query{Source: "find Martian"}); errors.Is(err, repro.ErrUnknownConcept) {
		fmt.Printf("typed error: %v\n", err)
	}
	var qe *repro.QueryError
	if _, err := dl.Search(ctx, repro.Query{Source: `find Player where sex = "oops`}); errors.As(err, &qe) {
		fmt.Printf("typed error with position %d: %v\n\n", qe.Pos, qe)
	}

	// Hot swap: index a (synthetic) video library and install it without
	// rebuilding the DigitalLibrary — running servers follow along.
	lib, err := repro.NewLibrary()
	if err != nil {
		log.Fatal(err)
	}
	cfg := repro.DefaultBroadcastConfig(42)
	cfg.Shots = 4
	b, err := repro.GenerateBroadcast(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := lib.IndexFrames("demo-clip", b.Frames, b.FPS); err != nil {
		log.Fatal(err)
	}
	before := dl.Snapshot()
	dl.Swap(lib)
	fmt.Printf("hot swap: snapshot %d -> %d\n", before, dl.Snapshot())
	scenes, err := dl.Search(ctx, repro.Query{Scenes: "rally"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scene query after swap: %d rally scenes indexed\n", scenes.Total)
}
