package ir

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/segfile"
)

// randomStrings returns n strings over a two-letter alphabet, of length
// up to 8: many are prefixes of others, and neighbours share long prefixes.
func randomStrings(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		b := make([]byte, rng.Intn(9))
		for j := range b {
			b[j] = "ab"[rng.Intn(2)]
		}
		out[i] = string(b)
	}
	return out
}

// TestFrontTable holds the front-coded table to the strings it was built
// from, heap-built and read back from a segfile: every entry decodes whole,
// sorted tables find every string at its position and place every absent
// one where a binary search over the strings does, without allocating, and
// naming a page of entries makes one allocation.
func TestFrontTable(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		all := randomStrings(rng, rng.Intn(100))
		sorted := slices.Clone(all)
		slices.Sort(sorted)
		sorted = slices.Compact(sorted)
		if len(sorted) > 0 && sorted[0] == "" {
			sorted = sorted[1:]
		}
		for _, c := range []struct {
			strs   []string
			sorted bool
		}{{all, false}, {sorted, true}} {
			var b frontBuilder
			for _, s := range c.strs {
				b.add(s)
			}
			heap := b.table()
			var buf bytes.Buffer
			sw, err := segfile.NewWriter(&buf)
			if err != nil {
				t.Fatal(err)
			}
			sw.Block("data", heap.data)
			sw.Block("heads", heap.heads.bytes())
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := segfile.NewReader(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := readFront(r, "data", "heads", len(c.strs), heap.heads.width(), c.sorted)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, tab := range []*frontTable{&heap, &mapped} {
				if tab.Len() != len(c.strs) {
					t.Fatalf("seed %d: %d entries, want %d", seed, tab.Len(), len(c.strs))
				}
				for i, s := range c.strs {
					longest := 0
					for j := i - i%restartEvery; j <= i; j++ {
						longest = max(longest, len(c.strs[j]))
					}
					n, l := tab.lenAt(i)
					if got := tab.At(i); got != s || n != len(s) || l != longest {
						t.Fatalf("seed %d: entry %d = %q (length %d, longest on the way %d), want %q (%d)", seed, i, got, n, l, s, longest)
					}
				}
				if !c.sorted {
					continue
				}
				for _, s := range append(randomStrings(rng, 40), c.strs...) {
					at := sort.SearchStrings(c.strs, s)
					want := at < len(c.strs) && c.strs[at] == s
					if got, ok := tab.find(s); got != at || ok != want {
						t.Fatalf("seed %d: find(%q) = (%d, %v), want (%d, %v)", seed, s, got, ok, at, want)
					}
				}
			}
		}
	}
	// Lookups allocate nothing; naming a page allocates its one buffer,
	// which every name aliases, and the names stay right.
	var b frontBuilder
	strs := []string{"player/0001", "player/0002", "player/0010", "players", "q"}
	for i := 0; i < 40; i++ {
		strs = append(strs, "zz/"+strings.Repeat("x", i))
	}
	for _, s := range strs {
		b.add(s)
	}
	tab := b.table()
	if allocs := testing.AllocsPerRun(100, func() { tab.find("player/0010"); tab.find("zz/xxxxq") }); allocs != 0 {
		t.Errorf("find allocates %.0f times", allocs)
	}
	// A ten-item page and one longer than the table, with repeats.
	long := make([]int, len(strs)+3)
	for i := range long {
		long[i] = len(strs) - 1 - i%len(strs)
	}
	for _, page := range [][]int{{44, 3, 0, 17, 2}, long} {
		got := make([]string, len(page))
		name := func() {
			nameDocs(len(page), func(i int) (*frontTable, int) { return &tab, page[i] }, func(i int, s string) { got[i] = s })
		}
		if allocs := testing.AllocsPerRun(100, name); allocs != 1 {
			t.Errorf("naming %d entries allocates %.0f times, want 1", len(page), allocs)
		}
		for i, e := range page {
			if got[i] != strs[e] {
				t.Fatalf("name %d of %d = %q, want %q", i, len(page), got[i], strs[e])
			}
		}
	}
}
