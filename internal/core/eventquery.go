package core

import (
	"fmt"
	"sort"
)

// Composite event queries: the COBRA companion paper implements the object
// and event grammars "within the query engine", letting users ask for
// events standing in a particular temporal relationship — e.g. a net-play
// that happens during a rally, or a service immediately followed (met) by
// a rally. These queries run over the populated meta-index using Allen's
// interval algebra.

// EventPair is one answer to a composite event query.
type EventPair struct {
	// A and B are the two related events (A rel B holds).
	A, B Event
	// Rel is the Allen relation that A bears to B.
	Rel AllenRelation
}

// EventsRelated returns all pairs (a, b) with a of kindA, b of kindB, both
// in the same video, such that Relation(a, b) is one of the wanted
// relations. With no relations given, every co-video pair is returned with
// its relation.
//
// When the wanted set excludes Before and After, only pairs whose intervals
// overlap or touch can qualify, and the query is answered by a sort +
// interval sweep that examines just those candidates instead of every
// co-video pair. Asking for Before or After (or for all relations)
// necessarily enumerates the full cross product and keeps the exhaustive
// scan. Either path returns pairs in the same order: ascending by the
// position of a in EventsByKind(kindA), then by the position of b in
// EventsByKind(kindB).
//
// Both operands and their per-video groupings come precomputed from the
// frozen columnar view, so a hot call does no table scans, no grouping and
// no sorting beyond the final scan-order restore.
func (m *MetaIndex) EventsRelated(kindA, kindB string, wanted ...AllenRelation) ([]EventPair, error) {
	v := m.frozenView()
	as, _, _ := v.kindEvents(kindA)
	_, byVideo, groups := v.kindEvents(kindB)
	want := map[AllenRelation]bool{}
	for _, r := range wanted {
		want[r] = true
	}
	if len(want) == 0 || want[RelBefore] || want[RelAfter] {
		return relatedScanGrouped(as, byVideo, kindA == kindB, want), nil
	}
	return relatedSweep(as, groups, kindA == kindB, want), nil
}

// EventsRelatedNaive is the reference O(A·B) pairwise implementation of
// EventsRelated: every co-video (a, b) pair is tested, over operands read
// through the row store so it keeps locking the frozen view from the
// outside. It exists so tests and benchmarks can cross-check the
// interval-sweep path against the exhaustive scan; both must return
// identical output on any index.
func (m *MetaIndex) EventsRelatedNaive(kindA, kindB string, wanted ...AllenRelation) ([]EventPair, error) {
	as, err := m.EventsByKindReference(kindA)
	if err != nil {
		return nil, fmt.Errorf("core: composite query: %w", err)
	}
	bs, err := m.EventsByKindReference(kindB)
	if err != nil {
		return nil, fmt.Errorf("core: composite query: %w", err)
	}
	want := map[AllenRelation]bool{}
	for _, r := range wanted {
		want[r] = true
	}
	byVideo := map[int64][]Event{}
	for _, b := range bs {
		byVideo[b.VideoID] = append(byVideo[b.VideoID], b)
	}
	return relatedScanGrouped(as, byVideo, kindA == kindB, want), nil
}

// relatedScanGrouped is the exhaustive pairwise path over a b operand
// grouped by video in operand order (the frozen view keeps the groups
// prebuilt). It is the only complete strategy when distant pairs (Before /
// After) can qualify, because then the answer itself is O(A·B).
func relatedScanGrouped(as []Event, byVideo map[int64][]Event, sameKind bool, want map[AllenRelation]bool) []EventPair {
	var out []EventPair
	for _, a := range as {
		for _, b := range byVideo[a.VideoID] {
			if sameKind && a.ID == b.ID {
				continue
			}
			rel := Relation(a.Interval, b.Interval)
			if len(want) == 0 || want[rel] {
				out = append(out, EventPair{A: a, B: b, Rel: rel})
			}
		}
	}
	return out
}

// ordEvent carries an event with its position in the naive iteration order
// so sweep output can be restored to scan order.
type ordEvent struct {
	ev  Event
	ord int
}

// sweepGroup is one video's kindB events sorted by start, with a prefix
// maximum over ends: maxEnd[i] = max(evs[0..i].End). A candidate window
// scan walking right-to-left can stop as soon as the prefix maximum drops
// below the probe's start — no earlier event can still reach it.
type sweepGroup struct {
	evs    []ordEvent
	maxEnd []int
}

func groupByVideoSorted(bs []Event) map[int64]*sweepGroup {
	byVideo := map[int64][]ordEvent{}
	for i, b := range bs {
		byVideo[b.VideoID] = append(byVideo[b.VideoID], ordEvent{b, i})
	}
	groups := make(map[int64]*sweepGroup, len(byVideo))
	for vid, list := range byVideo {
		sort.SliceStable(list, func(i, j int) bool {
			return list[i].ev.Start < list[j].ev.Start
		})
		maxEnd := make([]int, len(list))
		for i, e := range list {
			maxEnd[i] = e.ev.End
			if i > 0 && maxEnd[i-1] > maxEnd[i] {
				maxEnd[i] = maxEnd[i-1]
			}
		}
		groups[vid] = &sweepGroup{evs: list, maxEnd: maxEnd}
	}
	return groups
}

// sortPairsScanOrder reorders pairs (with their naive-order keys) to match
// relatedScanGrouped output: ascending a position, then ascending b position.
func sortPairsScanOrder(pairs []EventPair, aOrd, bOrd []int) []EventPair {
	if len(pairs) == 0 {
		return nil // match the scan path, which returns nil for no pairs
	}
	perm := make([]int, len(pairs))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool {
		pi, pj := perm[i], perm[j]
		if aOrd[pi] != aOrd[pj] {
			return aOrd[pi] < aOrd[pj]
		}
		return bOrd[pi] < bOrd[pj]
	})
	out := make([]EventPair, len(pairs))
	for i, p := range perm {
		out[i] = pairs[p]
	}
	return out
}

// relatedSweep answers relation sets that exclude Before and After. Every
// qualifying pair satisfies b.Start <= a.End && b.End >= a.Start (overlap
// or touch), so per video the b events are sorted by start and each a
// examines only the candidate window below the binary-searched upper bound,
// pruned by the prefix maximum of ends. Runtime is O(A log B + candidates)
// per video instead of O(A·B). The groups carry each b's position in the
// operand order, so output restores to scan order exactly.
func relatedSweep(as []Event, groups map[int64]*sweepGroup, sameKind bool, want map[AllenRelation]bool) []EventPair {
	var (
		out        []EventPair
		aOrd, bOrd []int
	)
	for ai, a := range as {
		g := groups[a.VideoID]
		if g == nil {
			continue
		}
		// Upper bound: first sorted index with b.Start > a.End.
		ub := sort.Search(len(g.evs), func(k int) bool { return g.evs[k].ev.Start > a.End })
		for i := ub - 1; i >= 0; i-- {
			if g.maxEnd[i] < a.Start {
				break // no earlier b can touch a
			}
			b := g.evs[i]
			if b.ev.End < a.Start {
				continue
			}
			if sameKind && a.ID == b.ev.ID {
				continue
			}
			rel := Relation(a.Interval, b.ev.Interval)
			if want[rel] {
				out = append(out, EventPair{A: a, B: b.ev, Rel: rel})
				aOrd = append(aOrd, ai)
				bOrd = append(bOrd, b.ord)
			}
		}
	}
	return sortPairsScanOrder(out, aOrd, bOrd)
}

// followingSweep is the windowed "A then B" sweep behind EventsFollowing.
func followingSweep(as []Event, groups map[int64]*sweepGroup, sameKind bool, maxGap int) []EventPair {
	var (
		out        []EventPair
		aOrd, bOrd []int
	)
	for ai, a := range as {
		g := groups[a.VideoID]
		if g == nil {
			continue
		}
		lo := sort.Search(len(g.evs), func(k int) bool { return g.evs[k].ev.Start >= a.End })
		hi := sort.Search(len(g.evs), func(k int) bool { return g.evs[k].ev.Start > a.End+maxGap })
		for i := lo; i < hi; i++ {
			b := g.evs[i]
			if sameKind && a.ID == b.ev.ID {
				continue
			}
			out = append(out, EventPair{A: a, B: b.ev, Rel: Relation(a.Interval, b.ev.Interval)})
			aOrd = append(aOrd, ai)
			bOrd = append(bOrd, b.ord)
		}
	}
	return sortPairsScanOrder(out, aOrd, bOrd)
}

// EventsFollowing returns events of kindB starting within maxGap frames
// after an event of kindA ends, in the same video — the "A then B"
// pattern (e.g. service followed by rally). Like EventsRelated it uses a
// per-video sorted sweep over the frozen view's prebuilt groups: each a
// examines only the b events whose start falls inside [a.End, a.End+maxGap].
func (m *MetaIndex) EventsFollowing(kindA, kindB string, maxGap int) ([]EventPair, error) {
	if maxGap < 0 {
		return nil, fmt.Errorf("core: negative gap %d", maxGap)
	}
	v := m.frozenView()
	as, _, _ := v.kindEvents(kindA)
	_, _, groups := v.kindEvents(kindB)
	return followingSweep(as, groups, kindA == kindB, maxGap), nil
}
