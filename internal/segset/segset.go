// Package segset owns, once, what every segmented lane of the library
// needs and none of them should write for itself: the contiguous ID
// arithmetic of an ordered part list, the ordinal range check, the part cell
// that resolves at most once, the scatter over an ordinal list, the k-way
// merge of best-first streams, and the in-order gather. A lane (ir, vec,
// core) keeps only what is its own: encode, decode and score.
//
// One segment identity runs through all of it: a part is named by its
// ordinal in the ordered list, and a part's documents by the contiguous
// range of global IDs that the sizes of the parts before it leave to it.
package segset

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Bases is the contiguous ID layout of an ordered part list: part i owns
// the global IDs [Start(i), Start(i+1)). Immutable; the zero value is not
// valid, build one with NewBases or Partition.
type Bases struct {
	start []int // len parts+1; start[parts] is the total
	ords  []int // 0..parts-1, shared by every Ords caller
}

// NewBases lays parts of the given sizes out contiguously from ID 0.
func NewBases(sizes []int) Bases {
	b := Bases{start: make([]int, len(sizes)+1), ords: make([]int, len(sizes))}
	for i, n := range sizes {
		b.start[i+1] = b.start[i] + n
		b.ords[i] = i
	}
	return b
}

// Partition splits n items into contiguous parts of ceil(n/parts) items,
// the last non-empty one taking the remainder. parts < 1 selects 1, and
// there are never more parts than items (when there are any).
func Partition(n, parts int) Bases {
	if parts < 1 {
		parts = 1
	}
	if n > 0 && parts > n {
		parts = n
	}
	per := (n + parts - 1) / parts
	sizes := make([]int, parts)
	for i := range sizes {
		sizes[i] = max(0, min(per, n-i*per))
	}
	return NewBases(sizes)
}

// Parts returns the part count.
func (b Bases) Parts() int { return len(b.ords) }

// Total returns the ID count across all parts.
func (b Bases) Total() int { return b.start[len(b.ords)] }

// Start returns part i's first global ID; Start(Parts()) is Total().
func (b Bases) Start(i int) int { return b.start[i] }

// Ords returns the ordinal list naming every part, in order. The slice is
// shared: callers must not modify it.
func (b Bases) Ords() []int { return b.ords }

// Of returns the part owning global ID id and id's position inside it.
// id must be in [0, Total()); empty parts own nothing and are skipped.
func (b Bases) Of(id int) (ord, local int) {
	ord = sort.Search(len(b.ords), func(i int) bool { return b.start[i+1] > id })
	return ord, id - b.start[ord]
}

// Check reports the first of ords that names no part of a list of have, or
// that names a part a second time: a scatter over a repeated ordinal would
// answer that part's documents twice. Selections arrive in ordinal order, so
// the repeat search runs only once the order breaks.
func Check(have int, ords ...int) error {
	ascending := true
	for i, o := range ords {
		if o < 0 || o >= have {
			return fmt.Errorf("segset: no segment ordinal %d (have %d)", o, have)
		}
		if i == 0 || ascending && o > ords[i-1] {
			continue
		}
		ascending = false
		if slices.Contains(ords[:i], o) {
			return fmt.Errorf("segset: segment ordinal %d selected twice", o)
		}
	}
	return nil
}

// Cell holds one part that resolves at most once: an eager part is a cell
// that was born resolved, a persisted one decodes on first Get. Safe for
// concurrent use; a failed load is cached like a successful one.
type Cell[T any] struct {
	once sync.Once
	load func() (*T, error)
	v    atomic.Pointer[T]
	err  error
}

// Ready returns a cell already holding v.
func Ready[T any](v *T) *Cell[T] {
	c := &Cell[T]{}
	c.v.Store(v)
	return c
}

// Lazy returns a cell that calls load on the first Get.
func Lazy[T any](load func() (*T, error)) *Cell[T] { return &Cell[T]{load: load} }

// Get returns the part, resolving it first if nobody has.
func (c *Cell[T]) Get() (*T, error) {
	if v := c.v.Load(); v != nil {
		return v, nil
	}
	c.once.Do(func() {
		v, err := c.load()
		c.load = nil // and with it whatever the loader held on to
		if c.err = err; err == nil {
			c.v.Store(v)
		}
	})
	return c.v.Load(), c.err
}

// Peek returns the part if it is resolved, nil otherwise; it never loads.
func (c *Cell[T]) Peek() *T { return c.v.Load() }

// Set is an ordered list of part cells.
type Set[T any] []*Cell[T]

// Part returns part ord, resolving it on first touch.
func (s Set[T]) Part(ord int) (*T, error) {
	if err := Check(len(s), ord); err != nil {
		return nil, err
	}
	return s[ord].Get()
}

// Gather runs fn over every part in order and concatenates the answers:
// the row order a single part holding everything would give.
func Gather[T, R any](s Set[T], fn func(*T) ([]R, error)) ([]R, error) {
	var out []R
	for ord := range s {
		p, err := s.Part(ord)
		if err != nil {
			return nil, err
		}
		rows, err := fn(p)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// Leg is one scatter leg: what fn reported for the part and the leg's wall
// time.
type Leg[S any] struct {
	Stats    S
	Duration time.Duration
}

// Scatter runs fn(slot, ords[slot]) for every slot, on at most GOMAXPROCS
// goroutines (a single leg runs on the caller's), and returns the legs in
// slot order. fn must write only what belongs to its slot, which is what
// makes the gather that follows deterministic.
func Scatter[S any](ords []int, fn func(slot, ord int) S) []Leg[S] {
	legs := make([]Leg[S], len(ords))
	run := func(slot int) {
		t0 := time.Now()
		legs[slot].Stats = fn(slot, ords[slot])
		legs[slot].Duration = time.Since(t0)
	}
	workers := min(len(ords), runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for slot := range ords {
			run(slot)
		}
		return legs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	worker := func() {
		defer wg.Done()
		for slot := int(next.Add(1)) - 1; slot < len(ords); slot = int(next.Add(1)) - 1 {
			run(slot)
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	return legs
}

// Merge gathers best-first streams into one best-first list, capped at k
// (k <= 0 keeps everything). Best-first is the one total order ranked
// answers have everywhere: score descending, ties by ID ascending, both as
// rank reports them (IDs are unique across the streams). Under a total
// order merging is associative — a merge of partial merges equals one flat
// merge — so a gather over nodes reproduces the local one byte for byte.
func Merge[H any](per [][]H, k int, rank func(*H) (score float64, id int)) []H {
	n := 0
	for _, h := range per {
		n += len(h)
	}
	if k > 0 && k < n {
		n = k
	}
	out := make([]H, 0, n)
	// heads caches each stream's position and the rank of the hit there, so
	// that rank runs once per hit, not once per comparison.
	type head struct {
		pos   int
		score float64
		id    int
	}
	heads := make([]head, len(per))
	for i, h := range per {
		if len(h) > 0 {
			heads[i].score, heads[i].id = rank(&h[0])
		}
	}
	for len(out) < n {
		best := -1
		for i := range heads {
			h := &heads[i]
			if h.pos < len(per[i]) && (best < 0 || h.score > heads[best].score ||
				h.score == heads[best].score && h.id < heads[best].id) {
				best = i
			}
		}
		h := &heads[best]
		out = append(out, per[best][h.pos])
		if h.pos++; h.pos < len(per[best]) {
			h.score, h.id = rank(&per[best][h.pos])
		}
	}
	return out
}
