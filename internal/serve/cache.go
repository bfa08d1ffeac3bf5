// Package serve is the long-lived query-serving layer over the digital
// library search engine: a sharded LRU result cache keyed on canonicalized
// query strings, and an HTTP handler exposing the combined, keyword, and
// scene queries as JSON — the piece that turns the one-shot demo engine
// into a daemon able to answer interactive traffic.
package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// cache is a sharded LRU mapping canonical query keys to results. Each
// entry is tagged when it is filled (the server tags with the engine
// snapshot that computed it); a lookup under another tag misses (and
// evicts), so the cache can never serve results computed against a
// superseded engine. Purge provides explicit whole-cache invalidation on
// top of that. The server's
// own cache holds *dlse.ResultSet.
type cache[V any] struct {
	shards []*cacheShard
	hits   atomic.Int64
	misses atomic.Int64
}

// Cache is the cache over untyped values, for callers that model its
// replacement behaviour without a server (the benchmark's hit-ratio check).
type Cache = cache[any]

type cacheShard struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type cacheEntry[V any] struct {
	key   string
	tag   int64
	value V
}

// NewCache builds a cache holding up to capacity entries spread over the
// given number of shards. Values < 1 select the defaults (1024 entries, 8
// shards). The capacity is split exactly: shards differ by at most one
// entry and the per-shard caps sum to capacity.
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
	c := &cache[V]{shards: make([]*cacheShard, shards)}
	for i := range c.shards {
		n := per
		if i < extra {
			n++
		}
		c.shards[i] = &cacheShard{
			cap: n,
			ll:  list.New(),
			m:   map[string]*list.Element{},
		}
	}
	return c
}

func (c *cache[V]) shard(key string) *cacheShard {
	// Inline FNV-1a: hash/fnv would heap-allocate a hasher per lookup on
	// the cache-hit fast path.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// Get returns the cached value for key if present and filled under the
// given tag. A tag mismatch evicts the stale entry and misses.
func (c *cache[V]) Get(key string, tag int64) (V, bool) {
	s := c.shard(key)
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
		s.ll.Remove(el)
		delete(s.m, key)
		c.misses.Add(1)
		return zero, false
	}
	s.ll.MoveToFront(el)
	c.hits.Add(1)
	return ent.value, true
}

// Put stores the value under key with the given tag, evicting the shard's
// least recently used entry if full.
func (c *cache[V]) Put(key string, tag int64, value V) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		ent := el.Value.(*cacheEntry[V])
		ent.tag = tag
		ent.value = value
		s.ll.MoveToFront(el)
		return
	}
	for s.ll.Len() >= s.cap {
		back := s.ll.Back()
		s.ll.Remove(back)
		delete(s.m, back.Value.(*cacheEntry[V]).key)
	}
	s.m[key] = s.ll.PushFront(&cacheEntry[V]{key: key, tag: tag, value: value})
}

// Purge drops every entry — the explicit invalidation hook Swap uses to free
// what a superseded engine filled.
func (c *cache[V]) Purge() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.ll.Init()
		s.m = map[string]*list.Element{}
		s.mu.Unlock()
	}
}

// Len returns the number of cached entries.
func (c *cache[V]) Len() int {
	n := 0
	c.Each(func(V) { n++ })
	return n
}

// Each calls fn on every cached value, outside the shard locks.
func (c *cache[V]) Each(fn func(V)) {
	for _, s := range c.shards {
		s.mu.Lock()
		vals := make([]V, 0, s.ll.Len())
		for el := s.ll.Front(); el != nil; el = el.Next() {
			vals = append(vals, el.Value.(*cacheEntry[V]).value)
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
