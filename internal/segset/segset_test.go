package segset

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBasesOfMatchesLinearScan: Of agrees with walking the parts, for
// random layouts that include empty parts at the front, middle and end, at
// every ID — so at every boundary.
func TestBasesOfMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layouts := [][]int{{1}, {0, 3}, {3, 0}, {0, 0, 2, 0, 0, 1, 0}, {5, 5, 5}}
	for i := 0; i < 200; i++ {
		sizes := make([]int, 1+rng.Intn(9))
		for j := range sizes {
			if rng.Intn(3) > 0 {
				sizes[j] = rng.Intn(6)
			}
		}
		layouts = append(layouts, sizes)
	}
	for _, sizes := range layouts {
		b := NewBases(sizes)
		if b.Parts() != len(sizes) || len(b.Ords()) != len(sizes) {
			t.Fatalf("%v: %d parts, %d ordinals", sizes, b.Parts(), len(b.Ords()))
		}
		id := 0
		for ord, n := range sizes {
			if b.Start(ord) != id || b.Ords()[ord] != ord {
				t.Fatalf("%v: part %d starts at %d (ordinal %d), want %d", sizes, ord, b.Start(ord), b.Ords()[ord], id)
			}
			for local := 0; local < n; local, id = local+1, id+1 {
				if o, l := b.Of(id); o != ord || l != local {
					t.Fatalf("%v: Of(%d) = (%d, %d), want (%d, %d)", sizes, id, o, l, ord, local)
				}
			}
		}
		if b.Total() != id || b.Start(len(sizes)) != id {
			t.Fatalf("%v: total %d, want %d", sizes, b.Total(), id)
		}
	}
}

// TestPartitionMatchesDivisionRule: Partition lays items out exactly as
// assigning item i to part min(i/ceil(n/parts), parts-1) does — the rule
// every engine build before it used, which cached segfiles depend on.
func TestPartitionMatchesDivisionRule(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for want := -1; want <= 45; want++ {
			b := Partition(n, want)
			parts := max(want, 1)
			if n > 0 {
				parts = min(parts, n)
			}
			if b.Parts() != parts || b.Total() != n {
				t.Fatalf("Partition(%d, %d): %d parts over %d items", n, want, b.Parts(), b.Total())
			}
			per := (n + parts - 1) / parts
			for i := 0; i < n; i++ {
				if ord, _ := b.Of(i); ord != min(i/per, parts-1) {
					t.Fatalf("Partition(%d, %d): item %d in part %d, want %d", n, want, i, ord, min(i/per, parts-1))
				}
			}
		}
	}
}

func TestCheck(t *testing.T) {
	if err := Check(3); err != nil {
		t.Fatal(err)
	}
	if err := Check(3, 0, 2, 1); err != nil {
		t.Fatal(err)
	}
	for _, ords := range [][]int{{-1}, {3}, {0, 1, 7}, {0, 0}, {2, 1, 2}, {1, 0, 2, 0}} {
		if err := Check(3, ords...); err == nil {
			t.Fatalf("ordinals %v accepted", ords)
		}
	}
	if err := Check(3, 2, 1, 2); err == nil || err.Error() != "segset: segment ordinal 2 selected twice" {
		t.Fatalf("repeated ordinal: %v", err)
	}
}

// TestScatterWritesEverySlotOnce runs under -race in CI: every slot is
// written exactly once, with its own ordinal, whatever the worker count.
func TestScatterWritesEverySlotOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 3, 17, 200} {
			ords := make([]int, n)
			for i := range ords {
				ords[i] = 3 * i
			}
			writes := make([]int, n)
			legs := Scatter(ords, func(slot, ord int) int {
				writes[slot]++
				return ord
			})
			if len(legs) != n {
				t.Fatalf("procs=%d n=%d: %d legs", procs, n, len(legs))
			}
			for slot, l := range legs {
				if writes[slot] != 1 || l.Stats != ords[slot] || l.Duration < 0 {
					t.Fatalf("procs=%d n=%d slot %d: %d writes, leg %+v", procs, n, slot, writes[slot], l)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

type hit struct {
	id    int
	score int
}

// worseHit is the order Merge promises, written out: score descending, then
// ID ascending.
func worseHit(a, b hit) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.id > b.id
}

func rankHit(h *hit) (float64, int) { return float64(h.score), h.id }

// TestMergeAssociative: a merge of partial merges equals the flat merge,
// which equals sorting everything — with many equal scores, so that the ID
// tie-break decides — at every cap.
func TestMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 100; round++ {
		var all []hit
		per := make([][]hit, 1+rng.Intn(6))
		for id, n := 0, rng.Intn(60); id < n; id++ {
			h := hit{id: id, score: rng.Intn(4)}
			i := rng.Intn(len(per))
			per[i] = append(per[i], h)
			all = append(all, h)
		}
		for i := range per {
			sort.Slice(per[i], func(a, b int) bool { return worseHit(per[i][b], per[i][a]) })
		}
		sort.Slice(all, func(a, b int) bool { return worseHit(all[b], all[a]) })
		for _, k := range []int{0, 1, 5, 1000} {
			want := all
			if k > 0 && k < len(all) {
				want = all[:k]
			}
			flat := Merge(per, k, rankHit)
			if len(flat) != len(want) || (len(want) > 0 && !reflect.DeepEqual(flat, want)) {
				t.Fatalf("round %d k=%d: flat merge %v, want %v", round, k, flat, want)
			}
			cut := rng.Intn(len(per) + 1)
			nested := Merge([][]hit{Merge(per[:cut], k, rankHit), Merge(per[cut:], k, rankHit)}, k, rankHit)
			if !reflect.DeepEqual(nested, flat) {
				t.Fatalf("round %d k=%d cut %d: nested merge %v, flat %v", round, k, cut, nested, flat)
			}
		}
	}
}

// TestCellHydratesOnce: sixteen concurrent first touches run the loader
// once and all see its answer; a failed load is cached the same way.
func TestCellHydratesOnce(t *testing.T) {
	boom := errors.New("boom")
	for _, fail := range []bool{false, true} {
		var loads atomic.Int32
		v := new(int)
		c := Lazy(func() (*int, error) {
			loads.Add(1)
			if fail {
				return nil, boom
			}
			return v, nil
		})
		if c.Peek() != nil {
			t.Fatal("unloaded cell peeks non-nil")
		}
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := c.Get()
				if fail && (got != nil || err != boom) || !fail && (got != v || err != nil) {
					t.Errorf("fail=%t: Get = %p, %v", fail, got, err)
				}
			}()
		}
		wg.Wait()
		if _, err := c.Get(); (err != nil) != fail || loads.Load() != 1 {
			t.Fatalf("fail=%t: err %v after %d loads", fail, err, loads.Load())
		}
		if (c.Peek() == nil) != fail {
			t.Fatalf("fail=%t: Peek = %p", fail, c.Peek())
		}
	}
	if c := Ready(new(int)); c.Peek() == nil {
		t.Fatal("ready cell peeks nil")
	}
}

// TestSetPartAndGather: Part range-checks, Gather concatenates in part
// order, resolves lazily, and stops at the first failure.
func TestSetPartAndGather(t *testing.T) {
	one, two := 1, 2
	boom := errors.New("boom")
	s := Set[int]{Ready(&one), Lazy(func() (*int, error) { return &two, nil }), Lazy(func() (*int, error) { return nil, boom })}
	for _, ord := range []int{-1, 3} {
		if _, err := s.Part(ord); err == nil {
			t.Fatalf("Part(%d) succeeded", ord)
		}
	}
	rows, err := Gather(s[:2], func(p *int) ([]int, error) { return []int{*p, *p * 10}, nil })
	if err != nil || !reflect.DeepEqual(rows, []int{1, 10, 2, 20}) {
		t.Fatalf("Gather = %v, %v", rows, err)
	}
	if _, err := Gather(s, func(p *int) ([]int, error) { return nil, nil }); err != boom {
		t.Fatalf("Gather over a failing part: %v", err)
	}
	if _, err := Gather(s[:2], func(p *int) ([]int, error) { return nil, boom }); err != boom {
		t.Fatalf("Gather over a failing fn: %v", err)
	}
}
