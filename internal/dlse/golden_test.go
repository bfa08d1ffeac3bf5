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
	"math"
	"testing"

	"repro/internal/webspace"
)

// goldenRankings is sha256 over (Doc, Float64bits(Score)), little-endian, of
// the full Vector then Hybrid ranking of each goldenQueries text in order.
const goldenRankings = "9b3d179fecc7b046ee12b6eee9e271112569dc9a1542fa0e30ac24aff634a8c1"

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
