package dlse

// Parity locks of depth-bounded ranking: whatever depth a ranked lane is
// asked for, what comes back is the prefix of the full ranking, bit for bit
// — which is what lets the engine, the cache and the router rank to the
// depth of a page instead of ranking everything and slicing.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/segset"
	"repro/internal/webspace"
)

// sameItems reports the first difference between two ranked answers, score
// bits included.
func sameItems(got, want []Item) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d items, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Doc != w.Doc || g.Page != w.Page || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("item %d: (%d %q %x), want (%d %q %x)", i,
				g.Doc, g.Page, math.Float64bits(g.Score), w.Doc, w.Page, math.Float64bits(w.Score))
		}
	}
	return nil
}

// synthLane builds one lane's leased scores over n docs split into nseg
// segments: touched docs get a score from a small set (so the lane is full
// of ties), and returns the handle with the lane's full ranking.
func synthLane(rng *rand.Rand, n, nseg int, touch float64, levels int) (ir.SegScores, []ir.Hit) {
	bases := segset.Partition(n, nseg)
	acs := make([]*ir.Accum, bases.Parts())
	var full []ir.Hit
	for ord := range acs {
		size := bases.Start(ord+1) - bases.Start(ord)
		acs[ord] = ir.NewAccum(size, new(sync.Pool))
		acs[ord].Begin()
		for local := 0; local < size; local++ {
			if rng.Float64() < touch {
				score := float64(1+rng.Intn(levels)) / 4
				acs[ord].Add(ir.DocID(local), score)
				d := ir.DocID(bases.Start(ord) + local)
				full = append(full, ir.Hit{Doc: d, Name: fmt.Sprintf("p%d", d), Score: score})
			}
		}
	}
	sort.Slice(full, func(i, j int) bool {
		if full[i].Score != full[j].Score {
			return full[i].Score > full[j].Score
		}
		return full[i].Doc < full[j].Doc
	})
	return ir.LeaseScores(bases, acs), full
}

// TestFuseTopMatchesFuseRRF locks the bounded fusion against the full one
// on synthetic lanes made of ties: for every depth d from 1 past the corpus,
// fusing the top fuseDepth(d) of each lane gives FuseRRF's first d items
// with the same score bits — including documents only one lane scored and
// equal RRF sums (two documents with swapped ranks) ordered by DocID.
func TestFuseTopMatchesFuseRRF(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tiedSums := 0
	for trial := 0; trial < 40; trial++ {
		n, nseg := 1+rng.Intn(120), 1+trial%3
		levels := 1 + rng.Intn(6)
		lexTouch, vecTouch := rng.Float64(), 1.0
		if trial%4 == 3 {
			vecTouch = 0.7 // a lane that did not score everything ranks some candidates 0
		}
		lexScores, lex := synthLane(rng, n, nseg, lexTouch, levels)
		vecScores, vec := synthLane(rng, n, nseg, vecTouch, levels)
		want := FuseRRF(hitItems(lex), hitItems(vec))
		for i := 1; i < len(want); i++ {
			if want[i].Score == want[i-1].Score {
				tiedSums++
			}
		}
		for d := 1; d <= n+1; d++ {
			depth := fuseDepth(d)
			got := fuseTop(d, lex[:min(depth, len(lex))], vec[:min(depth, len(vec))], lexScores, vecScores)
			if err := sameItems(got, want[:min(d, len(want))]); err != nil {
				t.Fatalf("trial %d (n=%d segs=%d) depth %d: %v", trial, n, nseg, d, err)
			}
		}
	}
	if tiedSums == 0 {
		t.Fatal("no equal RRF sums in any trial: the DocID tie-break went untested")
	}
}

// tieFixture is segFixture over a site whose last pages repeat earlier ones
// under new names: identical text means identical BM25 and cosine scores, so
// every lane's ranking has runs only the DocID tie-break orders — across
// segment boundaries too, since the copies land in the last segment.
func tieFixture(t *testing.T, textSegments int) *Engine {
	t.Helper()
	site, err := webspace.GenerateAusOpen(webspace.SiteConfig{Players: 40, YearStart: 1998, YearEnd: 2001, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, pg := range site.Pages[:len(site.Pages)/3] {
		if i%2 == 0 {
			site.Pages = append(site.Pages, webspace.Page{Name: "mirror/" + pg.Name, Text: pg.Text, ObjectID: pg.ObjectID})
		}
	}
	return segFixtureOver(t, site, textSegments)
}

// tieQueries all match pages of tieFixture's site, mirrored ones among them.
var tieQueries = []string{"australian open final", "smith net play", "left-handed", "female player melbourne"}

// rankedForms are the three ranked lanes over one text.
func rankedForms(text string) []Query {
	return []Query{{Keyword: text}, {Vector: text}, {Hybrid: text}}
}

// TestBoundedDepthParity is the acceptance lock of depth-bounded ranking:
// for every ranked lane, at 1, 2 and 3 text segments, over a corpus with
// deliberate score ties, a search limited to any depth from 1 to one past
// the lane returns exactly the unpaginated answer's page of that size —
// same documents, names and score bits, same Total (the length of the full
// list), same cursor — and the full answers agree across segmentations.
func TestBoundedDepthParity(t *testing.T) {
	ctx := context.Background()
	mono := tieFixture(t, 1)
	for _, nseg := range []int{1, 2, 3} {
		e := tieFixture(t, nseg)
		for _, text := range tieQueries {
			for _, q := range rankedForms(text) {
				full, err := e.SearchAll(ctx, q, false)
				if err != nil {
					t.Fatal(err)
				}
				want, err := mono.SearchAll(ctx, q, false)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameItems(full.Items, want.Items); err != nil {
					t.Fatalf("segs=%d %+v: full answer diverges from one segment: %v", nseg, q, err)
				}
				if full.Total != len(full.Items) {
					t.Fatalf("segs=%d %+v: Total %d, %d items", nseg, q, full.Total, len(full.Items))
				}
				ties := 0
				for i := 1; i < len(full.Items); i++ {
					if full.Items[i].Score == full.Items[i-1].Score {
						ties++
					}
				}
				// (Fused sums seldom tie on real scores; TestFuseTopMatchesFuseRRF
				// is where the hybrid tie-break is exercised.)
				if ties == 0 && q.Hybrid == "" {
					t.Fatalf("%+v: no score ties in the fixture's answer", q)
				}
				for depth := 1; depth <= e.VecIndex().Docs()+1; depth++ {
					got, err := e.Search(ctx, q, WithLimit(depth))
					if err != nil {
						t.Fatal(err)
					}
					page, err := full.Page("", depth)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameItems(got.Items, page.Items); err != nil {
						t.Fatalf("segs=%d %+v depth %d: %v", nseg, q, depth, err)
					}
					if got.Total != full.Total || got.Cursor != page.Cursor {
						t.Fatalf("segs=%d %+v depth %d: total %d cursor %q, want %d %q",
							nseg, q, depth, got.Total, got.Cursor, full.Total, page.Cursor)
					}
				}
			}
		}
	}
}

// TestBoundedWalkAndStream: on every ranked lane a cursor walk of any page
// size concatenates to the unpaginated answer, and pages cut from one
// limited result set deepen its shared prefix once.
func TestBoundedWalkAndStream(t *testing.T) {
	ctx := context.Background()
	e := tieFixture(t, 3)
	for _, q := range rankedForms("australian open final") {
		full, err := e.SearchAll(ctx, q, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 3, 7, full.Total, full.Total + 5} {
			var walked []Item
			cursor := Cursor("")
			for {
				pg, err := e.Search(ctx, q, WithLimit(size), WithCursor(cursor))
				if err != nil {
					t.Fatal(err)
				}
				if pg.Total != full.Total {
					t.Fatalf("%+v size %d: page total %d, want %d", q, size, pg.Total, full.Total)
				}
				walked = append(walked, pg.Items...)
				if cursor = pg.Cursor; cursor == "" {
					break
				}
			}
			if err := sameItems(walked, full.Items); err != nil {
				t.Fatalf("%+v size %d: cursor walk: %v", q, size, err)
			}
		}
		// Pages of one result set share the prefix: cutting a deep page
		// deepens it once, and re-cutting needs nothing more.
		first, err := e.Search(ctx, q, WithLimit(2))
		if err != nil {
			t.Fatal(err)
		}
		if first.Held() != 2 {
			t.Fatalf("%+v: limit=2 search holds %d items", q, first.Held())
		}
		deep, err := first.Page(encodeCursor(first.key, 9, first.Snapshot), 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameItems(deep.Items, full.Items[9:11]); err != nil || first.Held() != 11 {
			t.Fatalf("%+v: page at offset 9: %v, holding %d", q, err, first.Held())
		}
		if next, err := first.Page("", 5); err != nil || first.Held() != 11 || sameItems(next.Items, full.Items[:5]) != nil {
			t.Fatalf("%+v: re-cut of a held page deepened again (holding %d, err %v)", q, first.Held(), err)
		}
	}
}

// TestDeepForgedCursor: depth is client input — limit up to 999,999,999,
// a cursor offset up to 2^40 — and must never size anything. A forged
// offset far past the answer costs a miss one execution bounded by the
// corpus and returns an empty last page; against a held prefix it costs
// nothing at all.
func TestDeepForgedCursor(t *testing.T) {
	ctx := context.Background()
	e := tieFixture(t, 2)
	if got := Depth(encodeCursor(1, 1<<40, 0), 999_999_999); got != 1<<40+999_999_999 {
		t.Fatalf("Depth = %d", got)
	}
	if got := Depth(encodeCursor(1, 1<<40, 0), math.MaxInt); got != math.MaxInt {
		t.Fatalf("Depth does not saturate: %d", got)
	}
	if got := Depth("@@@", 7); got != 7 {
		t.Fatalf("Depth of a malformed cursor = %d, want the limit", got)
	}
	for _, q := range rankedForms("australian open final") {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		full, err := e.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		fullBytes := after.TotalAlloc - before.TotalAlloc
		for _, offset := range []int{full.Total, full.Total + 1, 1 << 31, 1 << 40} {
			forged := encodeCursor(full.key, offset, full.Snapshot)
			runtime.ReadMemStats(&before)
			page, err := e.Search(ctx, q, WithLimit(999_999_999), WithCursor(forged))
			runtime.ReadMemStats(&after)
			if err != nil || len(page.Items) != 0 || page.Cursor != "" || page.Total != full.Total {
				t.Fatalf("%+v offset %d: err %v, %d items, cursor %q, total %d",
					q, offset, err, len(page.Items), page.Cursor, page.Total)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 2*fullBytes+1<<16 {
				t.Fatalf("%+v offset %d: allocated %d bytes, the full ranking %d", q, offset, got, fullBytes)
			}
			held, err := e.Search(ctx, q, WithLimit(3))
			if err != nil {
				t.Fatal(err)
			}
			if page, err := held.Page(forged, 3); err != nil || len(page.Items) != 0 || page.Cursor != "" || held.Held() != 3 {
				t.Fatalf("%+v offset %d on a held prefix: err %v, holding %d", q, offset, err, held.Held())
			}
		}
		// One short of the end is a real last page.
		last, err := e.Search(ctx, q, WithLimit(999_999_999), WithCursor(encodeCursor(full.key, full.Total-1, 0)))
		if err != nil || sameItems(last.Items, full.Items[full.Total-1:]) != nil || last.Cursor != "" {
			t.Fatalf("%+v: last page by cursor: %v", q, err)
		}
	}
}

// TestRankedPageAllocs is the allocation lock of a limit=10 search in each
// ranked lane: per query, per segment and per returned item, never per
// matched document (33, 43 and 77 here; ranking all 648 documents of this
// site to slice ten off made 31, 85 and 780). The ceilings leave room for
// the race detector, under which sync.Pool drops a share of what is put.
func TestRankedPageAllocs(t *testing.T) {
	ctx := context.Background()
	site, err := webspace.GenerateAusOpen(webspace.SiteConfig{Players: 600, YearStart: 1990, YearEnd: 2001, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewSegmented(site, nil, Options{TextSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q   Query
		max float64
	}{
		{Query{Keyword: "australian open final"}, 56},
		{Query{Vector: "australian open final"}, 76},
		{Query{Hybrid: "australian open final"}, 130},
	} {
		search := func() {
			if _, err := e.Search(ctx, c.q, WithLimit(10)); err != nil {
				t.Fatal(err)
			}
		}
		search() // warm the accumulator pools
		if allocs := testing.AllocsPerRun(50, search); allocs > c.max {
			t.Fatalf("%+v limit=10: %.0f allocations per search, want <= %.0f", c.q, allocs, c.max)
		}
	}
}
