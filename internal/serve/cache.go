// Package serve is the long-lived query-serving layer over the digital
// library search engine: a sharded result cache keyed on canonicalized
// query strings that keeps the answers asked again, and an HTTP handler
// exposing the combined, keyword, and scene queries as JSON — the piece
// that turns the one-shot demo engine into a daemon able to answer
// interactive traffic.
package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// cache is a sharded, segmented LRU mapping canonical query keys to
// results, which admits a key by recurrence (2Q, Johnson & Shasha 1994; the
// admission policies of search-engine result caches, Baeza-Yates et al.
// 2007). Each shard splits its capacity in two:
//
//   - probation, 1/64 of the shard (at least one entry): a key's first
//     answer enters here, so a stream of one-off queries churns through a
//     few entries and never evicts an answer that was asked again;
//   - protected, the rest: an LRU of the answers hit in probation or asked
//     again after they left it.
//
// A key that leaves probation unasked, or is found stale, leaves its 64-bit
// hash in a ring of ghosts as long as the shard's capacity; its next miss
// goes straight to protected. A shard of one entry has no protected segment.
//
// Each entry is tagged when it is filled (the server tags with the engine
// snapshot that computed it); a lookup under another tag misses and turns
// the entry into a ghost, so the cache can never serve results computed
// against a superseded engine. Purge is the eager form of that: it turns
// every entry into a ghost. The server's own cache holds *dlse.ResultSet.
type cache[V any] struct {
	shards []*cacheShard[V]
	hits   atomic.Int64
	misses atomic.Int64
}

// Cache is the cache over untyped values, for callers that model its
// replacement behaviour without a server (the benchmark's hit-ratio check).
type Cache = cache[any]

type cacheShard[V any] struct {
	mu        sync.Mutex
	probCap   int
	protCap   int
	probation *list.List // front = most recently used
	protected *list.List // front = most recently used
	m         map[string]*list.Element
	ghosts    ghostRing
}

type cacheEntry[V any] struct {
	key       string
	hash      uint64
	tag       int64
	value     V
	protected bool
}

// NewCache builds a cache holding up to capacity entries spread over the
// given number of shards. Values < 1 select the defaults (1024 entries, 8
// shards). The capacity is split exactly: shards differ by at most one
// entry, and each shard's probation and protected capacities sum to its
// share.
func NewCache(capacity, shards int) *Cache { return newCache[any](capacity, shards) }

func newCache[V any](capacity, shards int) *cache[V] {
	if capacity < 1 {
		capacity = 1024
	}
	if shards < 1 {
		shards = 8
	}
	if shards > capacity {
		shards = capacity
	}
	per, extra := capacity/shards, capacity%shards
	c := &cache[V]{shards: make([]*cacheShard[V], shards)}
	for i := range c.shards {
		n := per
		if i < extra {
			n++
		}
		prob := max(1, n/64)
		c.shards[i] = &cacheShard[V]{
			probCap:   prob,
			protCap:   n - prob,
			probation: list.New(),
			protected: list.New(),
			m:         map[string]*list.Element{},
			ghosts:    ghostRing{ring: make([]uint64, n), at: map[uint64]int{}},
		}
	}
	return c
}

// hashKey is 64-bit FNV-1a, inline: hash/fnv would heap-allocate a hasher
// per lookup on the cache-hit fast path. It picks the shard and is what a
// ghost keeps of its key.
func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (c *cache[V]) shard(h uint64) *cacheShard[V] {
	return c.shards[h%uint64(len(c.shards))]
}

// Get returns the cached value for key if present and filled under the
// given tag; a hit in probation promotes the entry to protected. A tag
// mismatch turns the stale entry into a ghost and misses.
func (c *cache[V]) Get(key string, tag int64) (V, bool) {
	s := c.shard(hashKey(key))
	s.mu.Lock()
	defer s.mu.Unlock()
	var zero V
	el, ok := s.m[key]
	if !ok {
		c.misses.Add(1)
		return zero, false
	}
	ent := el.Value.(*cacheEntry[V])
	if ent.tag != tag {
		s.remove(el)
		s.ghosts.add(ent.hash)
		c.misses.Add(1)
		return zero, false
	}
	if !ent.protected && s.protCap > 0 {
		s.probation.Remove(el)
		s.protect(ent)
	} else {
		s.segment(ent).MoveToFront(el)
	}
	c.hits.Add(1)
	return ent.value, true
}

// Put stores the value under key with the given tag: in protected if the
// key is a ghost, else in probation, whose least recently used entry then
// leaves as a ghost if the segment is full.
func (c *cache[V]) Put(key string, tag int64, value V) {
	h := hashKey(key)
	s := c.shard(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		ent := el.Value.(*cacheEntry[V])
		ent.tag = tag
		ent.value = value
		s.segment(ent).MoveToFront(el)
		return
	}
	ent := &cacheEntry[V]{key: key, hash: h, tag: tag, value: value}
	if s.ghosts.take(h) && s.protCap > 0 {
		s.protect(ent)
		return
	}
	s.m[key] = s.probation.PushFront(ent)
	for s.probation.Len() > s.probCap {
		back := s.probation.Back()
		s.remove(back)
		s.ghosts.add(back.Value.(*cacheEntry[V]).hash)
	}
}

// protect puts ent at the front of the protected segment, dropping that
// segment's least recently used entries past its capacity.
func (s *cacheShard[V]) protect(ent *cacheEntry[V]) {
	ent.protected = true
	s.m[ent.key] = s.protected.PushFront(ent)
	for s.protected.Len() > s.protCap {
		s.remove(s.protected.Back())
	}
}

// segment is the list ent is in.
func (s *cacheShard[V]) segment(ent *cacheEntry[V]) *list.List {
	if ent.protected {
		return s.protected
	}
	return s.probation
}

// remove drops el from its segment and the key map.
func (s *cacheShard[V]) remove(el *list.Element) {
	ent := el.Value.(*cacheEntry[V])
	s.segment(ent).Remove(el)
	delete(s.m, ent.key)
}

// Purge drops every entry, leaving each one's key as a ghost beside the
// ghosts already held — the explicit invalidation Swap uses to free what a
// superseded engine filled. A key asked again after the purge goes straight
// back to protected.
func (c *cache[V]) Purge() {
	for _, s := range c.shards {
		s.mu.Lock()
		for _, l := range []*list.List{s.probation, s.protected} {
			for el := l.Back(); el != nil; el = el.Prev() {
				s.ghosts.add(el.Value.(*cacheEntry[V]).hash)
			}
			l.Init()
		}
		s.m = map[string]*list.Element{}
		s.mu.Unlock()
	}
}

// Len returns the number of cached entries, both segments.
func (c *cache[V]) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Each calls fn on every cached value of both segments, outside the shard
// locks.
func (c *cache[V]) Each(fn func(V)) {
	for _, s := range c.shards {
		s.mu.Lock()
		vals := make([]V, 0, len(s.m))
		for _, l := range []*list.List{s.protected, s.probation} {
			for el := l.Front(); el != nil; el = el.Next() {
				vals = append(vals, el.Value.(*cacheEntry[V]).value)
			}
		}
		s.mu.Unlock()
		for _, v := range vals {
			fn(v)
		}
	}
}

// Stats reports cumulative hit/miss counts.
func (c *cache[V]) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// ghostRing remembers the hashes of the last len(ring) keys that left a
// shard without being asked again; at maps each remembered hash to its slot.
// A slot overwritten after its hash was taken (or added again elsewhere) no
// longer owns the hash, so overwriting it forgets nothing.
type ghostRing struct {
	ring []uint64
	next int
	at   map[uint64]int
}

func (g *ghostRing) add(h uint64) {
	if old := g.ring[g.next]; g.at[old] == g.next {
		delete(g.at, old) // a no-op when old is not remembered here
	}
	g.ring[g.next] = h
	g.at[h] = g.next
	g.next = (g.next + 1) % len(g.ring)
}

// take reports whether h is a ghost, and forgets it.
func (g *ghostRing) take(h uint64) bool {
	if _, ok := g.at[h]; !ok {
		return false
	}
	delete(g.at, h)
	return true
}
