package dlse

// Committed answer golden of the vector and hybrid lanes. The hash was
// recorded at the commit before the vector lane's scan was rewritten (PR 18),
// so it pins the answers across that change — documents, score bits and
// tie-breaks — rather than comparing the lane with itself.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/webspace"
)

// goldenRankings is sha256 over (Doc, Float64bits(Score)), little-endian, of
// the full Vector then Hybrid ranking of each goldenQueries text in order.
const goldenRankings = "848e903b702ac26067ad037e9282295c631b5a9d7e83a786117baf463f7d90a1"

var goldenQueries = []string{
	"australian open final",
	"champion winner interview",
	"smith net play",
	"left-handed female player melbourne",
	"golden final highlight net-play",
}

// goldenEngine is the 64-player site over a three-video library, each video
// installed by WithVideo like a commit.
func goldenEngine(t *testing.T, textSegments int) *Engine {
	t.Helper()
	site, err := webspace.GenerateAusOpen(webspace.SiteConfig{Players: 64, YearStart: 1992, YearEnd: 2001, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewSegmented(site, nil, Options{TextSegments: textSegments})
	if err != nil {
		t.Fatal(err)
	}
	e = withCommittedVideo(t, e, "golden-final-1999", "net-play", "rally")
	e = withCommittedVideo(t, e, "golden-semifinal-2000", "rally", "service")
	return withCommittedVideo(t, e, "golden-final-highlight", "net-play")
}

func TestVectorHybridGolden(t *testing.T) {
	ctx := context.Background()
	for _, nseg := range []int{1, 3} {
		e := goldenEngine(t, nseg)
		h := sha256.New()
		var rec [16]byte
		for _, text := range goldenQueries {
			for _, q := range []Query{{Vector: text}, {Hybrid: text}} {
				rs, err := e.Search(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if len(rs.Items) == 0 || len(rs.Items) != rs.Total {
					t.Fatalf("%+v: %d items of %d", q, len(rs.Items), rs.Total)
				}
				for _, it := range rs.Items {
					binary.LittleEndian.PutUint64(rec[:8], uint64(it.Doc))
					binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(it.Score))
					h.Write(rec[:])
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenRankings {
			t.Fatalf("text segments %d: rankings hash %s, want %s", nseg, got, goldenRankings)
		}
	}
}

// goldenSiteAnswers is sha256 over the answers of siteAnswerQueries, each
// served by an engine over a dlbench-sized site at one and at four text
// segments, built in the heap and from the page-lane caches. It was recorded
// at the commit before the engine stopped retaining the site's pages, stored
// the webspace graph without per-object maps and looked text terms up in the
// sorted dictionary, so it pins the concept, lexical, vector and
// hybrid answers across those changes. See hashAnswer for what is hashed.
const goldenSiteAnswers = "df6431dc8133c6ba4df2e93c6240a839a8bc260841dd962b4e6cd981474e4027"

var siteAnswerQueries = []Query{
	{Source: `find Player where sex = "female" and handedness = "left" and exists wonFinals scenes "net-play" via wonFinals.video`},
	{Source: `find Player where country = "Spain" and exists playedFinals rank "champion interview" via interviews`},
	{Source: `find Player where contains(bio, "left-handed") and sex = "male" rank "australian open final" via wonFinals`},
	{Source: `find Final where year >= 1990 and category = "women" scenes "rally" via video`},
	{Source: `find Final where winner.handedness = "left" scenes "net-play" via video required rank "melbourne title"`},
	{Source: `find Interview where player.country = "Japan" rank "dream childhood crowd" limit 40`},
	{Source: `find Player where handedness = "left" rank "baseline teenager"`},
	{Keyword: "australian open final"},
	{Keyword: "left-handed champion melbourne"},
	{Vector: "women's singles winner"},
	{Vector: "ausopen final net-play"},
	{Hybrid: "australian open final"},
	{Hybrid: "champion interview dream"},
}

// goldenSite is dlbench's site shape: 8,192 players over 40 editions,
// 8,352 pages.
func goldenSite(t *testing.T) *webspace.Site {
	t.Helper()
	site, err := webspace.GenerateAusOpen(webspace.SiteConfig{Players: 8192, YearStart: 1962, YearEnd: 2001, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	return site
}

// hashAnswer writes one page of an answer into h: the Total, then per item
// its object ID, doc ID, score bits, page name and joined scenes (video name,
// event kind and interval), little-endian and length-prefixed.
func hashAnswer(h hash.Hash, rs *ResultSet) {
	var rec [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(rec[:], v)
		h.Write(rec[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	u64(uint64(rs.Total))
	u64(uint64(len(rs.Items)))
	for _, it := range rs.Items {
		var id int64
		if it.Object != nil {
			id = it.Object.ID
		}
		u64(uint64(id))
		u64(uint64(it.Doc))
		u64(math.Float64bits(it.Score))
		str(it.Page)
		u64(uint64(len(it.Scenes)))
		for _, sc := range it.Scenes {
			str(sc.Video.Name)
			str(sc.Event.Kind)
			u64(uint64(sc.Event.Interval.Start))
			u64(uint64(sc.Event.Interval.End))
		}
	}
}

// TestSiteAnswersGolden reads every siteAnswerQueries answer whole and as
// its first three 10-item pages, from engines over goldenSite with three
// committed final videos, at one and four text segments, with and without
// the page-lane caches.
func TestSiteAnswersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a dlbench-sized site four times")
	}
	site := goldenSite(t)
	ctx := context.Background()
	for _, nseg := range []int{1, 4} {
		for _, cached := range []bool{false, true} {
			opts := Options{TextSegments: nseg}
			if cached {
				dir := t.TempDir()
				opts.TextSegfile = filepath.Join(dir, "text.segf")
				opts.VecSegfile = filepath.Join(dir, "vec.segf")
			}
			e, err := NewSegmented(site, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			e = withCommittedVideo(t, e, "ausopen-2001-women-final", "net-play", "rally")
			e = withCommittedVideo(t, e, "ausopen-1995-women-final", "rally", "service")
			e = withCommittedVideo(t, e, "ausopen-1987-men-final", "net-play")
			h := sha256.New()
			for _, q := range siteAnswerQueries {
				rs, err := e.Search(ctx, q)
				if err != nil {
					t.Fatalf("%+v: %v", q, err)
				}
				if rs.Total == 0 {
					t.Fatalf("%+v: empty answer", q)
				}
				hashAnswer(h, rs)
				var cur Cursor
				for page := 0; page < 3; page++ {
					rs, err := e.Search(ctx, q, WithLimit(10), WithCursor(cur))
					if err != nil {
						t.Fatalf("%+v page %d: %v", q, page, err)
					}
					hashAnswer(h, rs)
					cur = rs.Cursor
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != goldenSiteAnswers {
				t.Errorf("text segments %d, cached %v: answers hash %s, want %s", nseg, cached, got, goldenSiteAnswers)
			}
		}
	}
}
