package dlse

// Cross-check of the segmented engine: an engine whose text index is split
// across N scatter-gather segments answers every query form byte-identically
// to the single-segment build, and per-segment explain stats surface.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/webspace"
)

func segFixture(t *testing.T, textSegments int) (*Engine, *webspace.Site) {
	t.Helper()
	site, err := webspace.GenerateAusOpen(webspace.SiteConfig{
		Players: 40, YearStart: 1998, YearEnd: 2001, Seed: 27,
	})
	if err != nil {
		t.Fatal(err)
	}
	return segFixtureOver(t, site, textSegments), site
}

// segFixtureOver builds the segmented engine over a given site, with one
// net-play event indexed for each of the site's videos.
func segFixtureOver(t *testing.T, site *webspace.Site, textSegments int) *Engine {
	t.Helper()
	idx, err := core.NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	for _, vid := range site.W.All("Video") {
		v, _ := site.W.Get(vid)
		id := idx.AddVideo(core.Video{Name: v.StringAttr("name"), Width: 160, Height: 120, FPS: 25, Frames: 500})
		seg := idx.AddSegment(core.Segment{VideoID: id, Interval: core.Interval{Start: 0, End: 200}, Class: "tennis"})
		idx.AddEvent(core.Event{VideoID: id, SegmentID: seg, Kind: "net-play", Interval: core.Interval{Start: 120, End: 180}, Confidence: 0.9})
	}
	e, err := NewSegmented(site, core.SingleSegment(idx.Freeze()), Options{TextSegments: textSegments})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSegmentedTextMatchesMonolithic locks scatter-gather text retrieval
// inside the engine: combined queries with rank text and the keyword
// baseline return identical items for 1- and N-segment text indexes.
func TestSegmentedTextMatchesMonolithic(t *testing.T) {
	mono, _ := segFixture(t, 1)
	ctx := context.Background()
	queries := []Query{
		{Source: `find Player where sex = "female" and exists wonFinals` +
			` scenes "net-play" via wonFinals.video rank "australian open champion"`},
		{Source: `find Player rank "left-handed winner"`},
		{Keyword: "australian open final"},
		{Keyword: "champion"},
	}
	for _, nseg := range []int{2, 5} {
		seg, _ := segFixture(t, nseg)
		if got := seg.TextIndex().NumSegments(); got != nseg {
			t.Fatalf("text segments: %d, want %d", got, nseg)
		}
		if seg.TextIndex().Docs() != mono.TextIndex().Docs() {
			t.Fatalf("docs diverge: %d vs %d", seg.TextIndex().Docs(), mono.TextIndex().Docs())
		}
		for _, q := range queries {
			want, err := mono.Search(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := seg.Search(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Items, got.Items) {
				t.Fatalf("nseg=%d query %+v diverges", nseg, q)
			}
		}
	}
}

// TestSegmentedTextExplain checks keyword and text operators expose one
// kernel-stat entry per text segment.
func TestSegmentedTextExplain(t *testing.T) {
	e, _ := segFixture(t, 3)
	ctx := context.Background()

	rs, err := e.Search(ctx, Query{Keyword: "champion"}, WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Explain == nil || len(rs.Explain.Ops) == 0 {
		t.Fatal("no explain payload")
	}
	kw := rs.Explain.Ops[0]
	if len(kw.Segments) != 3 {
		t.Fatalf("keyword op has %d segment entries, want 3", len(kw.Segments))
	}
	postings := 0
	for _, seg := range kw.Segments {
		if seg.Kernel == nil {
			t.Fatalf("segment %q missing kernel stats", seg.Op)
		}
		postings += seg.Kernel.PostingsScored
	}
	if kw.Kernel == nil || postings != kw.Kernel.PostingsScored {
		t.Fatalf("segment postings sum %d != merged %+v", postings, kw.Kernel)
	}

	rs, err = e.Search(ctx, Query{Source: `find Player rank "champion"`}, WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	var textOp *OpStat
	for i := range rs.Explain.Ops {
		if rs.Explain.Ops[i].Op == "text" {
			textOp = &rs.Explain.Ops[i]
		}
	}
	if textOp == nil {
		t.Fatal("no text operator in explain")
	}
	if len(textOp.Segments) != 3 {
		t.Fatalf("text op has %d segment entries, want 3", len(textOp.Segments))
	}
}
