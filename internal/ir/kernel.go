package ir

// Scoring kernel scratch: dense epoch-stamped accumulators recycled through
// the index's sync.Pool, plus the bounded-heap top-k selection. Together
// with the impact books built at Freeze they make the ranked-search hot
// path allocation-free in steady state: no score maps, no full sort.

import "sync"

// Accum is a per-query score accumulator over a dense document array.
// Instead of clearing len(docs) floats per query, every slot carries the
// epoch that last wrote it: a slot whose stamp is stale reads as zero, and
// Begin makes the whole array logically zero by bumping the epoch. It is
// exported for the other ranked lane (internal/vec), which scores into the
// same array and selects with the same heap.
type Accum struct {
	scores  []float64
	stamps  []uint32
	epoch   uint32
	touched []DocID // distinct docs written this epoch, in first-touch order
	home    *sync.Pool

	// Selection scratch reused across queries.
	hitHeap []Hit // TopK
	lists   any   // the top-k kernel's *lists at the index's widths (maxscore.go)
}

// NewAccum builds an accumulator over docs documents that Release returns
// to home — the New function of a lane's per-segment pool.
func NewAccum(docs int, home *sync.Pool) *Accum {
	return &Accum{
		scores: make([]float64, docs),
		stamps: make([]uint32, docs),
		home:   home,
	}
}

// Begin starts a fresh query: all slots read as zero again.
func (ac *Accum) Begin() {
	ac.touched = ac.touched[:0]
	ac.epoch++
	if ac.epoch == 0 { // uint32 wrap: stale stamps could alias, clear them
		for i := range ac.stamps {
			ac.stamps[i] = 0
		}
		ac.epoch = 1
	}
}

// Add accumulates v into doc d's score.
func (ac *Accum) Add(d DocID, v float64) {
	if ac.stamps[d] != ac.epoch {
		ac.stamps[d] = ac.epoch
		ac.scores[d] = v
		ac.touched = append(ac.touched, d)
		return
	}
	ac.scores[d] += v
}

// Get returns doc d's score this epoch (zero if untouched).
func (ac *Accum) Get(d DocID) float64 {
	if ac.stamps[d] != ac.epoch {
		return 0
	}
	return ac.scores[d]
}

// Touched returns how many distinct documents the query scored.
func (ac *Accum) Touched() int { return len(ac.touched) }

// Release returns the accumulator to its pool; it must not be used after.
func (ac *Accum) Release() { ac.home.Put(ac) }

// getAccum leases a query accumulator from the pool. Release it when the
// query's results have been materialized.
func (ix *Index) getAccum() *Accum {
	ac := ix.scratch.Get().(*Accum)
	ac.Begin()
	return ac
}

// worseHit reports whether a ranks strictly below b under the result order
// (score descending, ties broken by ascending DocID). Documents are unique,
// so this is a strict total order and heap selection reproduces the full
// sort's ranking exactly.
func worseHit(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

// TopK selects the best k hits from the accumulator with a min-heap of size
// k over the touched documents — O(n log k) against the reference's
// build-all-then-sort O(n log n) — and returns them best-first, under the
// accumulator's own document numbers and unnamed. k <= 0 or k beyond the
// touched count ranks every touched document, so no depth a client can name
// sizes anything past the documents there are. Output is byte-identical to
// the retained map-based reference (same hits, same scores, same tie-breaks).
func (ac *Accum) TopK(k int) []Hit {
	n := len(ac.touched)
	if k <= 0 || k > n {
		k = n
	}
	// h is a min-heap whose root is the worst kept hit.
	h := ac.hitHeap[:0]
	for _, d := range ac.touched {
		cand := Hit{Doc: d, Score: ac.scores[d]}
		if len(h) < k {
			h = append(h, cand)
			siftUpHit(h)
			continue
		}
		if worseHit(h[0], cand) {
			h[0] = cand
			siftDownHit(h)
		}
	}
	ac.hitHeap = h[:0]
	out := make([]Hit, len(h))
	copy(out, sortHeap(h))
	return out
}

// sortHeap sorts the min-heap h in place, best first, and returns it: each
// step swaps the worst hit left to the end of the shrinking heap.
func sortHeap(h []Hit) []Hit {
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDownHit(h[:n])
	}
	return h
}

// topKDense is TopK with the index's document names filled in.
func (ix *Index) topKDense(ac *Accum, k int) []Hit {
	out := ac.TopK(k)
	for i := range out {
		out[i].Name = ix.names.At(int(out[i].Doc))
	}
	return out
}

func siftUpHit(h []Hit) {
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if worseHit(h[parent], h[i]) {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func siftDownHit(h []Hit) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(h) && worseHit(h[l], h[worst]) {
			worst = l
		}
		if r < len(h) && worseHit(h[r], h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
