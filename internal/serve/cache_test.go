package serve

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// oneShard is a one-shard cache of 128 entries: probation 2, protected 126.
func oneShard() *Cache { return NewCache(128, 1) }

// putOneOffs stores n keys that are never asked again.
func putOneOffs(c *Cache, prefix string, n int) {
	for i := range n {
		c.Put(fmt.Sprintf("%s%d", prefix, i), 1, i)
	}
}

func TestCacheOneOffNeverEvictsProtected(t *testing.T) {
	c := oneShard()
	c.Put("hot", 1, "hot")
	if _, ok := c.Get("hot", 1); !ok { // a probation hit: now protected
		t.Fatal("hot missing")
	}
	putOneOffs(c, "once", 1000)
	if v, ok := c.Get("hot", 1); !ok || v != "hot" {
		t.Fatalf("one-off keys evicted the protected entry: %v, %t", v, ok)
	}
}

func TestCacheProbationHitPromotes(t *testing.T) {
	c := oneShard()
	c.Put("a", 1, "a")
	if _, ok := c.Get("a", 1); !ok {
		t.Fatal("a missing")
	}
	c.Put("b", 1, "b") // never asked: leaves when two newer keys arrive
	putOneOffs(c, "once", 2)
	if _, ok := c.Get("a", 1); !ok {
		t.Fatal("the promoted entry left with probation")
	}
	if _, ok := c.Get("b", 1); ok {
		t.Fatal("b outlived a probation segment of two entries")
	}
}

func TestCacheGhostAdmitsToProtected(t *testing.T) {
	c := oneShard()
	c.Put("evicted", 1, "e1")
	putOneOffs(c, "push", 2) // evicted leaves probation as a ghost
	if _, ok := c.Get("evicted", 1); ok {
		t.Fatal("evicted still cached")
	}
	c.Put("evicted", 1, "e2") // the ghost's next miss: straight to protected

	c.Put("stale", 1, "s1")
	if _, ok := c.Get("stale", 2); ok { // met under a newer tag: a ghost
		t.Fatal("stale tag served")
	}
	c.Put("stale", 2, "s2")

	putOneOffs(c, "once", 1000)
	if v, ok := c.Get("evicted", 1); !ok || v != "e2" {
		t.Fatalf("evicted: got %v, %t; its re-admission did not go to protected", v, ok)
	}
	if v, ok := c.Get("stale", 2); !ok || v != "s2" {
		t.Fatalf("stale: got %v, %t; its re-admission did not go to protected", v, ok)
	}
}

func TestCacheVersionMismatchEvicts(t *testing.T) {
	c := NewCache(8, 2)
	c.Put("a", 1, "v1")
	if _, ok := c.Get("a", 2); ok {
		t.Fatal("stale version served")
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("stale entry retained, len = %d", n)
	}
	c.Put("a", 2, "v2")
	if v, ok := c.Get("a", 2); !ok || v != "v2" {
		t.Fatalf("got %v, %t", v, ok)
	}
}

func TestCachePurge(t *testing.T) {
	c := NewCache(16, 4)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), 1, i)
	}
	c.Purge()
	if n := c.Len(); n != 0 {
		t.Fatalf("len after purge = %d", n)
	}
}

func TestCachePurgeKeepsGhosts(t *testing.T) {
	c := oneShard()
	c.Put("ghost", 1, "g")
	putOneOffs(c, "push", 2) // ghost leaves probation as a ghost
	c.Put("held", 1, "h")
	c.Get("held", 1) // protected
	c.Purge()
	if n := c.Len(); n != 0 {
		t.Fatalf("len after purge = %d, want both segments empty", n)
	}
	n := 0
	c.Each(func(any) { n++ })
	if n != 0 {
		t.Fatalf("Each visits %d values after purge", n)
	}
	// Both keys come back under the new snapshot's tag: the old ghost and
	// the purged entry each go straight to protected.
	c.Put("ghost", 2, "g2")
	c.Put("held", 2, "h2")
	putOneOffs(c, "once", 1000)
	for key, want := range map[string]string{"ghost": "g2", "held": "h2"} {
		if v, ok := c.Get(key, 2); !ok || v != want {
			t.Fatalf("%s: got %v, %t; the purge lost its ghost", key, v, ok)
		}
	}
}

func TestCacheLenAndEachCountBothSegments(t *testing.T) {
	c := oneShard()
	c.Put("a", 1, "a")
	c.Get("a", 1) // protected
	for _, k := range []string{"b", "c", "d", "e", "f"} {
		c.Put(k, 1, k)
	}
	if n := c.Len(); n != 3 {
		t.Fatalf("len = %d, want the protected entry and probation's two", n)
	}
	var got []string
	c.Each(func(v any) { got = append(got, v.(string)) })
	slices.Sort(got)
	if want := []string{"a", "e", "f"}; !slices.Equal(got, want) {
		t.Fatalf("Each visits %v, want %v", got, want)
	}
}

func TestCacheShardCapacitiesSumToCapacity(t *testing.T) {
	for _, tc := range []struct{ capacity, shards, want int }{
		{0, 0, 1024}, {1, 1, 1}, {1, 8, 1}, {4, 1, 4}, {130, 3, 130},
		{1000, 7, 1000}, {1024, 8, 1024}, {4096, 8, 4096},
	} {
		c := NewCache(tc.capacity, tc.shards)
		sum := 0
		for i, s := range c.shards {
			n := s.probCap + s.protCap
			if s.probCap != max(1, n/64) || len(s.ghosts.ring) != n {
				t.Errorf("NewCache(%d, %d) shard %d: probation %d of %d, %d ghosts",
					tc.capacity, tc.shards, i, s.probCap, n, len(s.ghosts.ring))
			}
			sum += n
		}
		if sum != tc.want {
			t.Errorf("NewCache(%d, %d): shard capacities sum to %d, want %d", tc.capacity, tc.shards, sum, tc.want)
		}
		// Every key asked twice, three times over the capacity: the cache
		// never holds more than its capacity.
		for i := range 3 * tc.want {
			k := fmt.Sprintf("k%d", i)
			c.Put(k, 1, i)
			c.Get(k, 1)
		}
		if n := c.Len(); n > tc.want {
			t.Errorf("NewCache(%d, %d) holds %d entries", tc.capacity, tc.shards, n)
		}
	}
}

// TestCacheConcurrent exercises the shard locking under -race: puts,
// probation hits that promote, stale tags and probation evictions that make
// ghosts, ghost re-admissions, purges and the Len/Each walks, all at once.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(64, 4) // shards of 16: probation 1, protected 15
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("k%d", (i*7+g)%96)
				tag := int64(i / 100)
				if _, ok := c.Get(k, tag); !ok {
					c.Put(k, tag, i)
				}
				c.Get(k, tag) // a probation hit promotes
				if i%3 == 0 {
					c.Put(fmt.Sprintf("once-%d-%d", g, i), tag, i) // pushes probation out as ghosts
				}
				if i%50 == 0 && g == 0 {
					c.Purge()
				}
				if i%40 == 0 && g == 1 {
					n := 0
					c.Each(func(any) { n++ })
					if n > 64 || c.Len() > 64 {
						t.Errorf("cache over capacity: %d values, len %d", n, c.Len())
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if hits, _ := c.Stats(); hits == 0 {
		t.Error("no hit: nothing was promoted")
	}
}
