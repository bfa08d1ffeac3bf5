package main

import (
	"net/url"
	"strings"
	"testing"

	"repro"
	"repro/internal/serve"
)

// smallCorpus is a corpus without files: a 64-player site is enough for the
// query generators, which only read player names from it.
func smallCorpus(t *testing.T, seed int64) *corpus {
	t.Helper()
	site, err := repro.GenerateSite(repro.SiteConfig{Players: 64, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return &corpus{seed: seed, site: site}
}

func TestRankedStreamIsSeededUniqueAndBalanced(t *testing.T) {
	a, b := newRankedStream(smallCorpus(t, 3)), newRankedStream(smallCorpus(t, 3))
	other := newRankedStream(smallCorpus(t, 4))
	seen := map[string]bool{}
	lane := map[string]int{}
	differs := 0
	const ops = 8000
	for i := 0; i < ops; i++ {
		o := a.at(i)
		if o != b.at(i) {
			t.Fatalf("op %d differs between two streams of one seed", i)
		}
		if o != other.at(i) {
			differs++
		}
		v, err := url.ParseQuery(o.query)
		if err != nil {
			t.Fatal(err)
		}
		if seen[v.Get("kw")] {
			t.Fatalf("op %d repeats query %q: the cache would hit", i, v.Get("kw"))
		}
		seen[v.Get("kw")] = true
		if n := len(strings.Fields(v.Get("kw"))); n < 4 || n > 5 {
			t.Errorf("op %d has %d terms, want 3-4 vocabulary terms and a unique token", i, n)
		}
		if v.Get("limit") != "10" || o.pool != -1 {
			t.Errorf("op %d: %+v", i, o)
		}
		if kind := v.Get("kind"); kind != classNames[o.class] && !(kind == "" && o.class == classLexical) {
			t.Errorf("op %d: class %d but kind=%q", i, o.class, kind)
		}
		lane[classNames[o.class]]++
	}
	// Drawn per op at 2:1:1, so within sampling error of 4000:2000:2000
	// (three standard deviations of a 2000-of-8000 draw are 116).
	for name, want := range map[string]int{"lexical": ops / 2, "vector": ops / 4, "hybrid": ops / 4} {
		if d := lane[name] - want; d < -120 || d > 120 {
			t.Errorf("lane mix = %v, want 2:1:1", lane)
		}
	}
	if w := a.weights(); w[classLexical] != 0.5 || w[classVector] != 0.25 || w[classHybrid] != 0.25 {
		t.Errorf("lane weights = %v, want the 2:1:1 of the mix", w)
	}
	if differs < ops*29/30 {
		t.Errorf("another seed changed only %d of %d ops", differs, ops)
	}
}

// cacheKey is the result-cache key dlserve would use for a pool query: scene
// lookups share one entry per kind whatever their page size.
func cacheKey(query string) string {
	v, _ := url.ParseQuery(query)
	if k := v.Get("kind"); k != "" {
		return "sc|" + k
	}
	return query
}

func TestContentMixIsSeededAndHitsTheStatedBand(t *testing.T) {
	for _, seed := range []int64{1, 2, 42} {
		m, again := newContentMix(seed), newContentMix(seed)
		if len(m.pool) != contentPoolSize {
			t.Fatalf("pool holds %d queries", len(m.pool))
		}
		distinct := map[string]bool{}
		for _, q := range m.pool {
			distinct[q] = true
		}
		if len(distinct) != len(m.pool) {
			t.Errorf("seed %d: pool has %d distinct queries of %d", seed, len(distinct), len(m.pool))
		}
		// dlserve's own cache, at its default size, over the op stream: after
		// the workload's warm-up, the traced run's 2,000 ops and a timed
		// run's ~40,000 must both land in the band.
		const warm = 4000
		cache := serve.NewCache(0, 0)
		hits, kinds := 0, 0
		for i := 0; i < warm+40000; i++ {
			o := m.at(i)
			if o != again.at(i) {
				t.Fatalf("seed %d: op %d differs between two streams of one seed", seed, i)
			}
			if o.query != m.pool[o.pool] {
				t.Fatalf("op %d: pool index does not name its query", i)
			}
			if strings.HasPrefix(o.query, "kind=") {
				kinds++
			}
			key := cacheKey(o.query)
			if _, ok := cache.Get(key, 1); !ok {
				cache.Put(key, 1, struct{}{})
			} else if i >= warm {
				hits++
			}
			if n := i + 1 - warm; n == 2000 || n == 40000 {
				if ratio := float64(hits) / float64(n); ratio < 0.65 || ratio > 0.75 {
					t.Errorf("seed %d: hit ratio after %d ops = %.3f, want 0.65-0.75", seed, n, ratio)
				}
			}
		}
		if kinds == 0 {
			t.Errorf("seed %d: the stream holds no scene lookups", seed)
		}
		if w := m.weights(); w[classHit] < 0.65 || w[classHit] > 0.75 || w[classHit]+w[classMiss] != 1 {
			t.Errorf("class weights = %v, want the hit ratio of the stated band", w)
		}
	}
}

func TestReaderSliceCycles(t *testing.T) {
	m := newContentMix(5)
	s := newReaderSlice(m)
	if len(s.ops) != 64 {
		t.Fatalf("slice holds %d ops", len(s.ops))
	}
	for i := 0; i < 200; i++ {
		if s.at(i) != m.at(i%64) {
			t.Fatalf("reader op %d is not op %d of content-mix", i, i%64)
		}
	}
}

func TestCommitCountTracksRunLength(t *testing.T) {
	for seconds, want := range map[int]int{12: 104, 2: 24, 1: 24, 60: 488} {
		if got := (runConfig{seconds: seconds}).commits(); got != want {
			t.Errorf("%d s: %d commits, want %d", seconds, got, want)
		}
		if got := (runConfig{seconds: seconds}).commits(); got%walCheckpoint != commitsPast {
			t.Errorf("%d s: %d commits do not end %d past a checkpoint", seconds, got, commitsPast)
		}
	}
}
