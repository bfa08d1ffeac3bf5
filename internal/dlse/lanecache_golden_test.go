package dlse

// Byte golden of the cold page-lane build. The hashes were recorded at
// 4fccc99, the commit before the build analysed each page once for both
// lanes (PR 22), so they pin the two segfile caches that build writes —
// postings, impacts, vectors and layout — across that change rather than
// comparing the build with itself.

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/webspace"
)

// Sha256 of the text and vector segfile caches a cold build writes for
// laneCacheSite at four text segments.
const (
	goldenTextCache = "e1c5b4a5c8380c1bda22d9aaa0e9a33f05b23055b04eb17d1819ed9e006557f5"
	goldenVecCache  = "893b98baae1dc914a6d5e16064d43501d49f26eb324e735e7edf0a6920e9cc4d"
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
