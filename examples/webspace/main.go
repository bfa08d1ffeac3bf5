// Webspace demonstrates the conceptual search layer: the same information
// need expressed as a webspace query (over the object graph) and as a
// keyword query (over the flattened pages), showing what the HTML
// translation loses.
//
// Run: go run ./examples/webspace
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/dlse"
	"repro/internal/webspace"
)

func main() {
	log.SetFlags(0)

	site, err := webspace.GenerateAusOpen(webspace.SiteConfig{
		Players: 64, YearStart: 1992, YearEnd: 2001, Seed: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("site: %d players, %d finals, %d flattened pages\n\n",
		site.W.Count("Player"), site.W.Count("Final"), len(site.Pages))

	// Conceptual query: champions since 1998 from Australia.
	q := webspace.Query{
		Class: "Player",
		Where: []webspace.Constraint{
			{Attr: "country", Op: webspace.OpEq, Val: "Australia"},
			{Path: []string{"wonFinals"}, Attr: "year", Op: webspace.OpGe, Val: int64(1998)},
		},
	}
	objs, err := site.W.Run(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("webspace query: Australian champions since 1998")
	for _, o := range objs {
		fmt.Printf("  %s (%s)\n", o.StringAttr("name"), o.StringAttr("handedness"))
		for _, fid := range o.Links["wonFinals"] {
			f, _ := site.W.Get(fid)
			fmt.Printf("      won %d %s's final\n", f.Attr("year"), f.StringAttr("category"))
		}
	}

	// The same need through the combined engine's query language.
	engine, err := dlse.New(site, nil)
	if err != nil {
		log.Fatal(err)
	}
	req, err := dlse.ParseRequest(site.W.Schema(),
		`find Player where country = "Australia" and wonFinals.year >= 1998`)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	results, err := engine.Search(ctx, dlse.Query{Request: &req})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquery language gives the same %d players\n", results.Total)

	// Keyword baseline: pages mentioning the words, but no join.
	hits, err := engine.Search(ctx, dlse.Query{Keyword: "australia champion winner 1998"}, dlse.WithLimit(8))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nkeyword baseline over flattened pages:")
	for _, h := range hits.Items {
		fmt.Printf("  %-40s %.3f\n", h.Page, h.Score)
	}
	fmt.Println("(finds pages containing the words — it cannot join a player's")
	fmt.Println(" country from the bio page with their titles on the final pages)")
}
