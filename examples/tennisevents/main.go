// Tennisevents runs the paper's motivating example end to end:
//
//	"Show me video scenes of left-handed female players who have won the
//	 Australian Open in the past, in which they approach the net."
//
// It generates the Australian Open webspace site, renders and indexes a
// synthetic broadcast for each final, and answers the combined
// concept + content query.
//
// Run: go run ./examples/tennisevents
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	log.SetFlags(0)

	// 1. The conceptual site: players, finals, videos, interviews.
	site, err := repro.GenerateSite(repro.SiteConfig{
		Players: 32, YearStart: 2000, YearEnd: 2001, Seed: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	videoNames := site.W.All("Video")
	fmt.Printf("site: %d players, %d finals, %d pages\n",
		site.W.Count("Player"), site.W.Count("Final"), len(site.Pages))

	// 2. Index one synthetic broadcast per final video.
	lib, err := repro.NewLibrary()
	if err != nil {
		log.Fatal(err)
	}
	for i, id := range videoNames {
		obj, _ := site.W.Get(id)
		name := obj.StringAttr("name")
		cfg := repro.DefaultBroadcastConfig(100 + int64(i))
		cfg.Shots = 8
		b, err := repro.GenerateBroadcast(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := lib.IndexFrames(name, b.Frames, b.FPS); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("indexed %s (%d frames)\n", name, len(b.Frames))
	}

	// 3. The combined query, in the demo query language.
	dl, err := repro.NewDigitalLibrary(site, lib)
	if err != nil {
		log.Fatal(err)
	}
	queryText := repro.MotivatingQuery()
	fmt.Printf("\nquery:\n%s\n\n", queryText)
	ctx := context.Background()
	results, err := dl.Search(ctx, repro.Query{Source: queryText})
	if err != nil {
		log.Fatal(err)
	}
	if len(results.Items) == 0 {
		fmt.Println("no left-handed female champions on this site (try another seed)")
		return
	}
	for _, r := range results.Items {
		p := r.Object
		fmt.Printf("%s (%s, %s-handed)\n",
			p.StringAttr("name"), p.StringAttr("country"), p.StringAttr("handedness"))
		if len(r.Scenes) == 0 {
			fmt.Println("    (no net-play detected in her final's video)")
		}
		for _, s := range r.Scenes {
			fmt.Printf("    net-play scene: %s frames %s (confidence %.2f)\n",
				s.Video.Name, s.Event.Interval, s.Event.Confidence)
		}
	}

	// 4. What a keyword engine sees instead.
	fmt.Println("\nkeyword baseline for comparison:")
	hits, err := dl.Search(ctx, repro.Query{Keyword: "left-handed female champion net"}, repro.WithLimit(5))
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range hits.Items {
		fmt.Printf("  %-40s %.3f\n", h.Page, h.Score)
	}
	fmt.Println("(pages, not players — the concept joins are lost in the HTML)")
}
