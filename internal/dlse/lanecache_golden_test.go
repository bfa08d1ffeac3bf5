package dlse

// Byte golden of the cold page-lane build. The hashes were recorded at
// 4fccc99, the commit before the build analysed each page once for both
// lanes (PR 22), so they pin the two segfile caches that build writes —
// postings, impacts, vectors and layout — across that change rather than
// comparing the build with itself. The text hash was re-recorded once for
// text format 2, which drops the impact-ordered blocks and keeps every other
// block byte for byte, once for text format 3, which stores the same fields
// at their narrowest widths (TestTextFormat3EqualsFormat2 compares them
// field by field), and once for text format 4, which stores each term's
// distinct (TF, impact) pairs once, in a book, and each posting a code into
// it (TestTextFormat4EqualsFormat3 reads every posting's TF and impact back
// through the books and compares them with format 3's field by field; that
// test is what allows this one re-recording), and once for text format 5,
// which drops the idf block and keeps every other field
// (TestTextFormat5EqualsFormat4 compares them with format 4's field by field
// and format 4's idf bits with the union idf; that test is what allows this
// one re-recording), and once for text format 6, which stores a list of more
// than a sixteenth of its segment as a bitmap and a list of every document
// as nothing (TestTextFormat6EqualsFormat5 reads every list's doc IDs back
// and compares them with format 5's field by field; that test is what allows
// this one re-recording), and once for text format 7, which front-codes the
// dictionary and the page names (TestTextFormat7EqualsFormat6 reads both
// back and compares every field with format 6's; that test is what allows
// this one re-recording); the page answers it serves are pinned across all
// six changes by goldenLanePages. The vector hash was re-recorded once for vec
// format 2, which stores each coordinate as the embedder's integer count at
// the narrowest width plus one scale per page, and no page names
// (TestVecFormat2EqualsFormat1 rebuilds every coordinate bit for bit);
// goldenLanePages pins its answers across that change too.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/webspace"
)

// Sha256 of the text and vector segfile caches a cold build writes for
// laneCacheSite at four text segments.
const (
	goldenTextCache = "e26c5caadb4b0d5a070bf02a634f014f1c97672c5a43eff7090a55ee2eedf807"
	goldenVecCache  = "8199d591a1533ce8c121d59fc487f9dce241082bd27b486e516b5c0e3401dde7"
)

// laneCacheSite is a 1,024-player, 40-edition site: dlbench's shape at an
// eighth of its pages.
func laneCacheSite(t testing.TB) *webspace.Site {
	t.Helper()
	site, err := webspace.GenerateAusOpen(webspace.SiteConfig{Players: 1024, YearStart: 1962, YearEnd: 2001, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func TestPageLaneCacheGolden(t *testing.T) {
	site := laneCacheSite(t)
	dir := t.TempDir()
	opts := Options{
		TextSegments: 4,
		TextSegfile:  filepath.Join(dir, "text.segf"),
		VecSegfile:   filepath.Join(dir, "vec.segf"),
	}
	if _, err := NewSegmented(site, nil, opts); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ path, want string }{
		{opts.TextSegfile, goldenTextCache},
		{opts.VecSegfile, goldenVecCache},
	} {
		data, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", filepath.Base(c.path), got, c.want)
		}
	}
}

// textCacheBytes is the size of the text cache a cold build writes for
// laneCacheSite at four text segments, measured when the dictionary and the
// page names became front-coded (text format 7; format 6, dense lists as
// bitmaps, wrote 110,091 bytes, format 5, without the idf block, 138,579,
// format 4, each posting's TF and impact in its term's book, 156,115,
// format 3, the integer columns at their narrowest widths, 216,367, and
// format 2 329,431).
const textCacheBytes = 87123

// TestTextCacheSize holds the text cache of laneCacheSite at four segments to
// textCacheBytes plus 2 %, and logs what it costs per posting.
func TestTextCacheSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "text.segf")
	if _, err := NewSegmented(laneCacheSite(t), nil, Options{TextSegments: 4, TextSegfile: path}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	postings := 0
	for _, seg := range decodeTextFile(t, path).segs {
		postings += seg.postings()
	}
	size := fi.Size()
	t.Logf("text cache: %d bytes for %d postings, %.2f bytes per posting", size, postings, float64(size)/float64(postings))
	if bound := int64(textCacheBytes + textCacheBytes/50); size > bound {
		t.Errorf("text cache is %d bytes, want at most %d (%d + 2 %%)", size, bound, textCacheBytes)
	}
}

// goldenLanePages is sha256 over, per page of each laneCachePageQueries
// query in order: the answer's Total, then (Doc, Float64bits(Score)) of every
// item, little-endian. It was recorded at the commit before the text cache
// dropped its impact-ordered blocks (format 2), so it pins the answers the
// mapped lanes serve across that change, at one and at four text segments.
const goldenLanePages = "68bc590633bebadd02b11ad515a9bd1ed1bb4f484a00aa2671b0e00f0ad1d71f"

var laneCachePageQueries = []Query{
	{Keyword: "australian open final"},
	{Keyword: "left-handed champion"},
	{Vector: "women's singles winner"},
	{Vector: "australian open final"},
	{Hybrid: "australian open final"},
	{Hybrid: "champion interview"},
}

// TestLaneCachePageGolden reads the first two 10-item pages of keyword,
// vector and hybrid queries from an engine serving the page-lane caches it
// has just written.
func TestLaneCachePageGolden(t *testing.T) {
	site := laneCacheSite(t)
	ctx := context.Background()
	for _, nseg := range []int{1, 4} {
		dir := t.TempDir()
		e, err := NewSegmented(site, nil, Options{
			TextSegments: nseg,
			TextSegfile:  filepath.Join(dir, "text.segf"),
			VecSegfile:   filepath.Join(dir, "vec.segf"),
		})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var rec [16]byte
		for _, q := range laneCachePageQueries {
			var cur Cursor
			for page := 0; page < 2; page++ {
				rs, err := e.Search(ctx, q, WithLimit(10), WithCursor(cur))
				if err != nil {
					t.Fatalf("%+v page %d: %v", q, page, err)
				}
				if len(rs.Items) != 10 {
					t.Fatalf("%+v page %d: %d items of %d", q, page, len(rs.Items), rs.Total)
				}
				binary.LittleEndian.PutUint64(rec[:8], uint64(rs.Total))
				h.Write(rec[:8])
				for _, it := range rs.Items {
					binary.LittleEndian.PutUint64(rec[:8], uint64(it.Doc))
					binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(it.Score))
					h.Write(rec[:])
				}
				cur = rs.Cursor
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenLanePages {
			t.Errorf("text segments %d: pages hash %s, want %s", nseg, got, goldenLanePages)
		}
	}
}
