package repro_test

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro"
)

// Index a synthetic tennis broadcast, held in memory, through the feature
// grammar (segment detector → tennis detector → event rules), then read its
// classified shots, query its scenes and print the grammar that drove the
// detectors.
func ExampleLibrary_IndexBatch() {
	cfg := repro.DefaultBroadcastConfig(7)
	cfg.Shots = 12
	broadcast, err := repro.GenerateBroadcast(cfg)
	if err != nil {
		log.Fatal(err)
	}
	lib, err := repro.NewLibrary()
	if err != nil {
		log.Fatal(err)
	}
	job := repro.IngestJob{Name: "quickstart-clip", Frames: broadcast.Frames, FPS: broadcast.FPS}
	results, err := lib.IndexBatch(context.Background(), []repro.IngestJob{job}, repro.BatchOptions{})
	if err != nil {
		log.Fatal(err)
	}

	segments, err := lib.Segments(results[0].VideoID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("classified shots:")
	for _, s := range segments {
		fmt.Printf("  %s %s\n", s.Interval, s.Class)
	}
	fmt.Println("detected scenes:")
	for _, kind := range []string{"rally", "net-play", "service"} {
		scenes, err := lib.Scenes(kind)
		if err != nil {
			log.Fatal(err)
		}
		for _, sc := range scenes {
			fmt.Printf("  %-9s %s (confidence %.2f)\n", kind, sc.Event.Interval, sc.Event.Confidence)
		}
	}
	fmt.Println("feature grammar:")
	fmt.Print(repro.GrammarText())
	// Output:
	// classified shots:
	//   [0,55) tennis
	//   [55,115) other
	//   [115,164) tennis
	//   [164,212) audience
	//   [212,269) tennis
	//   [269,300) close-up
	//   [300,350) tennis
	//   [350,376) close-up
	//   [376,407) tennis
	//   [407,444) other
	//   [444,484) tennis
	//   [484,532) close-up
	// detected scenes:
	//   rally     [0,55) (confidence 1.00)
	//   rally     [115,137) (confidence 1.00)
	//   rally     [212,237) (confidence 1.00)
	//   rally     [300,350) (confidence 1.00)
	//   rally     [376,407) (confidence 1.00)
	//   rally     [444,463) (confidence 1.00)
	//   net-play  [140,164) (confidence 1.00)
	//   net-play  [241,269) (confidence 1.00)
	//   net-play  [465,484) (confidence 1.00)
	// feature grammar:
	// feature grammar "tennis"
	// atoms: video
	// segment (blackbox) -> shots, classes
	//   tennis (whitebox) [class==tennis] -> players, trajectories, shapes
	//     netplay (whitebox) -> event_netplay
	//     rally (whitebox) -> event_rally
	//     service (whitebox) -> event_service
}

// Search is the one query entrypoint: walk an answer page by page with its
// cursor, ask for the operator plan, branch on typed errors, and swap a
// freshly indexed video library in under a running DigitalLibrary.
func ExampleDigitalLibrary_Search() {
	ctx := context.Background()
	site, err := repro.GenerateSite(repro.SiteConfig{Players: 48, YearStart: 1996, YearEnd: 2001, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	dl, err := repro.NewDigitalLibrary(site, nil)
	if err != nil {
		log.Fatal(err)
	}

	// The cursor walk reads a large answer a page at a time; on an
	// unchanged snapshot the pages concatenate to the unpaginated answer.
	q := repro.Query{Source: `find Player where exists wonFinals rank "dream childhood crowd" via interviews`}
	cursor := repro.Cursor("")
	for page := 1; ; page++ {
		rs, err := dl.Search(ctx, q, repro.WithLimit(4), repro.WithCursor(cursor))
		if err != nil {
			log.Fatal(err)
		}
		for _, it := range rs.Items {
			fmt.Printf("page %d: %-24s score=%.3f\n", page, it.Object.StringAttr("name"), it.Score)
		}
		if cursor = rs.Cursor; cursor == "" {
			fmt.Printf("%d results\n", rs.Total)
			break
		}
	}

	ex, err := dl.Search(ctx, q, repro.WithExplain())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("explain:", ex.Explain.Plan)
	for _, op := range ex.Explain.Ops {
		fmt.Printf("  %-8s %d items\n", op.Op, op.Items)
	}

	if _, err := dl.Search(ctx, repro.Query{Source: "find Martian"}); errors.Is(err, repro.ErrUnknownConcept) {
		fmt.Println("typed error:", err)
	}
	var qe *repro.QueryError
	if _, err := dl.Search(ctx, repro.Query{Source: `find Player where sex = "oops`}); errors.As(err, &qe) {
		fmt.Printf("typed error at byte %d: %v\n", qe.Pos, qe)
	}

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
	job := repro.IngestJob{Name: "demo-clip", Frames: b.Frames, FPS: b.FPS}
	if _, err := lib.IndexBatch(ctx, []repro.IngestJob{job}, repro.BatchOptions{}); err != nil {
		log.Fatal(err)
	}
	before := dl.Snapshot()
	dl.Swap(lib)
	scenes, err := dl.Search(ctx, repro.Query{Scenes: "rally"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after the swap: new snapshot %t, %d rally scenes\n", dl.Snapshot() != before, scenes.Total)
	// Output:
	// page 1: Anolva Ollu              score=5.514
	// page 1: Zovawil Vael             score=5.514
	// page 1: Quirova Luzo             score=5.514
	// page 1: Tiolgo Peel              score=5.514
	// page 2: Beldra Margo             score=5.514
	// page 2: Marquika Isolna          score=5.514
	// page 2: Xakaqui Luva             score=5.514
	// page 2: Safi Kais                score=5.514
	// page 3: Yaxawil Olbel            score=5.514
	// page 3: Zogo Lurodra             score=5.514
	// page 3: Pedrape Naxa             score=5.514
	// 11 results
	// explain: [concept ‖ text] → merge
	//   concept  11 items
	//   text     12 items
	//   merge    11 items
	// typed error: dlse: unknown class "Martian" (at offset 5)
	// typed error at byte 24: dlse: unterminated string (at offset 24)
	// after the swap: new snapshot true, 2 rally scenes
}
