// Command dlsearch is the end-to-end digital library search engine demo:
// it generates the synthetic Australian Open site, optionally loads a
// video meta-index produced by cobraindex, and answers combined queries in
// the demo query language over the unified v2 Search path.
//
// Usage:
//
//	dlsearch -query 'find Player where sex = "female" and exists wonFinals'
//	dlsearch -meta meta.db -query "$(dlsearch -motivating)"
//	dlsearch -keyword "left-handed champion"        # flattened-page baseline
//	dlsearch -query 'find Player' -json             # machine-readable output
//	dlsearch -query 'find Player' -explain          # operator plan + timings
//	dlsearch -repl                                  # interactive session
//
// In -repl mode the site and engine are built once and queries are read
// from stdin in a loop over the same v2 Search path the dlserve daemon
// uses — instead of paying full site generation and index build per query.
// Lines starting with "kw " run the keyword baseline; "plan " prints a
// query's operator plan; "explain " runs the query and prints its explain
// payload; "quit" exits.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/dlse"
	"repro/internal/serve"
	"repro/internal/webspace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dlsearch: ")
	var (
		query      = flag.String("query", "", "combined query in the demo query language")
		keyword    = flag.String("keyword", "", "keyword baseline query over flattened pages")
		motivating = flag.Bool("motivating", false, "print the paper's motivating query and exit")
		repl       = flag.Bool("repl", false, "build the engine once and answer queries from stdin in a loop")
		jsonOut    = flag.Bool("json", false, "emit results as JSON (the /v2/search item shape)")
		explain    = flag.Bool("explain", false, "print the executed operator plan with timings")
		limit      = flag.Int("limit", 0, "page size for -keyword (default 10) and -query (default: all)")
		metaPath   = flag.String("meta", "", "meta-index file from cobraindex (optional)")
		players    = flag.Int("players", 64, "site size: number of players")
		seed       = flag.Int64("seed", 16, "site generation seed")
		years      = flag.Int("years", 10, "site size: number of tournament editions")
	)
	flag.Parse()

	if *motivating {
		fmt.Println(dlse.MotivatingQueryText)
		return
	}
	if *query == "" && *keyword == "" && !*repl {
		log.Fatal("need -query, -keyword, -repl or -motivating")
	}

	site, err := webspace.GenerateAusOpen(webspace.SiteConfig{
		Players: *players, YearStart: 2001 - *years + 1, YearEnd: 2001, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	var view *core.SegmentedIndex
	if *metaPath != "" {
		// The segfile memory-maps with lazy segment decode. The mapping
		// lives for the life of the process, so the closer is ignored.
		view, _, err = core.OpenSegmentedFile(*metaPath)
		if err != nil {
			log.Fatal(err)
		}
	}
	engine, err := dlse.NewSegmented(site, view, dlse.Options{})
	if err != nil {
		log.Fatal(err)
	}
	p := printer{json: *jsonOut, explain: *explain, limit: *limit}

	if *repl {
		runREPL(engine, site, p)
		return
	}

	q := dlse.Query{Source: *query}
	src := *query
	if *keyword != "" {
		q = dlse.Query{Keyword: *keyword}
		src = *keyword
	}
	if err := runSearch(engine, q, p); err != nil {
		printQueryError(src, err)
		os.Exit(1)
	}
}

// printQueryError renders a search failure; for *QueryError with a byte
// offset it echoes the query with a caret under the offending position:
//
//	error: dlse: expected attribute or role name (at offset 12)
//	  find Player wehre sex = "female"
//	              ^
func printQueryError(src string, err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	var qe *dlse.QueryError
	if !errors.As(err, &qe) || qe.Pos < 0 || qe.Pos > len(src) || src == "" {
		return
	}
	fmt.Fprintln(os.Stderr, "  "+src)
	// The parser reports byte offsets; the caret column is the rune count
	// of the text before the offset.
	fmt.Fprintln(os.Stderr, "  "+strings.Repeat(" ", utf8.RuneCountInString(src[:qe.Pos]))+"^")
}

// printer renders v2 result sets for the terminal or as JSON.
type printer struct {
	json    bool
	explain bool
	limit   int // page size; 0 = all for combined/scene, 10 for keyword
}

// keywordDefaultLimit caps keyword output like the pre-v2 CLI did: the
// baseline matches most of the site on common terms, and a terminal dump
// of every page is never what an interactive user wants.
const keywordDefaultLimit = 10

// runSearch answers one unified query on the v2 path and prints the
// answer.
func runSearch(engine *dlse.Engine, q dlse.Query, p printer) error {
	opts := []dlse.SearchOption{}
	if p.explain {
		opts = append(opts, dlse.WithExplain())
	}
	limit := p.limit
	if limit <= 0 && q.Keyword != "" {
		limit = keywordDefaultLimit
	}
	if limit > 0 {
		opts = append(opts, dlse.WithLimit(limit))
	}
	rs, err := engine.Search(context.Background(), q, opts...)
	if err != nil {
		return err
	}
	return p.print(rs, q)
}

func (p printer) print(rs *dlse.ResultSet, q dlse.Query) error {
	if p.explain && rs.Explain != nil {
		fmt.Printf("plan: %s\n", rs.Explain.Plan)
		for _, op := range rs.Explain.Ops {
			fmt.Printf("  %-8s %10v  %d items", op.Op, op.Duration, op.Items)
			if op.Kernel != nil {
				fmt.Printf("  (terms=%d postings=%d docs=%d terminated=%t)",
					op.Kernel.TermsMatched, op.Kernel.PostingsScored,
					op.Kernel.DocsTouched, op.Kernel.Terminated)
			}
			fmt.Println()
		}
	}
	if p.json {
		out, err := serve.RenderItems(rs.Items)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	trunc := ""
	if len(rs.Items) < rs.Total {
		trunc = fmt.Sprintf(" (showing %d)", len(rs.Items))
	}
	switch {
	case q.Keyword != "":
		fmt.Printf("keyword baseline: %d hits%s\n", rs.Total, trunc)
		for _, it := range rs.Items {
			fmt.Printf("  %-40s %.3f\n", it.Page, it.Score)
		}
	case q.Scenes != "":
		fmt.Printf("%d scenes%s\n", rs.Total, trunc)
		for _, it := range rs.Items {
			s := it.Scene
			fmt.Printf("  %s frames %s (%s, confidence %.2f)\n",
				s.Video.Name, s.Event.Interval, s.Event.Kind, s.Event.Confidence)
		}
	default:
		fmt.Printf("%d results%s\n", rs.Total, trunc)
		for _, it := range rs.Items {
			name := it.Object.StringAttr("name")
			if name == "" {
				name = fmt.Sprintf("%s #%d", it.Object.Class, it.Object.ID)
			}
			fmt.Printf("  %-30s", name)
			if it.Score > 0 {
				fmt.Printf(" score=%.3f", it.Score)
			}
			fmt.Println()
			for _, s := range it.Scenes {
				fmt.Printf("      scene: %s frames %s (%s, confidence %.2f)\n",
					s.Video.Name, s.Event.Interval, s.Event.Kind, s.Event.Confidence)
			}
		}
	}
	return nil
}

// runREPL answers queries from stdin against the one engine built at
// startup, sharing the v2 Search path.
func runREPL(engine *dlse.Engine, site *webspace.Site, p printer) {
	fmt.Fprintln(os.Stderr, `dlsearch repl — query language lines, "kw <terms>" for the keyword baseline,`)
	fmt.Fprintln(os.Stderr, `"plan <query>" to show the plan, "explain <query>" to run with timings,`)
	fmt.Fprintln(os.Stderr, `"motivating" for the paper's example, "quit" to exit`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for {
		fmt.Fprint(os.Stderr, "dlse> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == "quit" || line == "exit":
			return
		case line == "motivating":
			fmt.Println(dlse.MotivatingQueryText)
		case strings.HasPrefix(line, "kw "):
			kw := strings.TrimPrefix(line, "kw ")
			if err := runSearch(engine, dlse.Query{Keyword: kw}, p); err != nil {
				printQueryError(kw, err)
			}
		case strings.HasPrefix(line, "plan "):
			src := strings.TrimPrefix(line, "plan ")
			req, err := dlse.ParseRequest(site.W.Schema(), src)
			if err != nil {
				printQueryError(src, err)
				continue
			}
			fmt.Println(engine.Plan(req))
		case strings.HasPrefix(line, "explain "):
			px := p
			px.explain = true
			src := strings.TrimPrefix(line, "explain ")
			if err := runSearch(engine, dlse.Query{Source: src}, px); err != nil {
				printQueryError(src, err)
			}
		default:
			if err := runSearch(engine, dlse.Query{Source: line}, p); err != nil {
				printQueryError(line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}
