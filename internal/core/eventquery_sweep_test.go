package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomEventIndex populates an index with a seeded pseudo-random event
// layout: several videos, several kinds, heavy interval overlap — the
// adversarial input for the sweep path.
func randomEventIndex(t testing.TB, seed int64, videos, eventsPerVideo int) *MetaIndex {
	t.Helper()
	m, err := NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	kinds := []string{"rally", "net-play", "service"}
	for v := 0; v < videos; v++ {
		vid := m.AddVideo(Video{Name: "v", Frames: 1000})
		seg := m.AddSegment(Segment{VideoID: vid, Interval: Interval{0, 1000}, Class: "tennis"})
		for e := 0; e < eventsPerVideo; e++ {
			start := rng.Intn(900)
			length := rng.Intn(120) // 0 allowed: empty intervals must agree too
			ev := Event{
				VideoID: vid, SegmentID: seg,
				Kind:     kinds[rng.Intn(len(kinds))],
				Interval: Interval{Start: start, End: start + length},
			}
			m.AddEvent(ev)
		}
	}
	return m
}

// TestEventsRelatedSweepMatchesNaive locks the sweep to the reference scan:
// for every wanted-relation subset that takes the sweep path (and a few
// that fall back), output must be deeply identical — same pairs, same
// relations, same order.
func TestEventsRelatedSweepMatchesNaive(t *testing.T) {
	m := randomEventIndex(t, 42, 5, 60)
	cases := []struct {
		name   string
		kindA  string
		kindB  string
		wanted []AllenRelation
	}{
		{"during", "net-play", "rally", []AllenRelation{RelDuring}},
		{"during-starts-finishes-equals", "net-play", "rally",
			[]AllenRelation{RelDuring, RelStarts, RelFinishes, RelEquals}},
		{"meets-metby", "service", "rally", []AllenRelation{RelMeets, RelMetBy}},
		{"overlaps", "rally", "rally", []AllenRelation{RelOverlaps, RelOverlappedBy}},
		{"contains", "rally", "net-play", []AllenRelation{RelContains}},
		{"same-kind-equals", "rally", "rally", []AllenRelation{RelEquals}},
		{"all-thirteen-minus-distant", "net-play", "service", []AllenRelation{
			RelMeets, RelOverlaps, RelStarts, RelDuring, RelFinishes, RelEquals,
			RelFinishedBy, RelContains, RelStartedBy, RelOverlappedBy, RelMetBy}},
		// Fallback paths: the scan answers these, sweep must not engage.
		{"no-relations-all-pairs", "net-play", "rally", nil},
		{"before", "service", "rally", []AllenRelation{RelBefore}},
		{"after-and-during", "rally", "net-play", []AllenRelation{RelAfter, RelDuring}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fast, err := m.EventsRelated(tc.kindA, tc.kindB, tc.wanted...)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := m.EventsRelatedNaive(tc.kindA, tc.kindB, tc.wanted...)
			if err != nil {
				t.Fatal(err)
			}
			if len(fast) != len(naive) {
				t.Fatalf("sweep returned %d pairs, naive %d", len(fast), len(naive))
			}
			if !reflect.DeepEqual(fast, naive) {
				for i := range fast {
					if !reflect.DeepEqual(fast[i], naive[i]) {
						t.Fatalf("pair %d differs:\nsweep: %+v\nnaive: %+v", i, fast[i], naive[i])
					}
				}
			}
		})
	}
}

// followingNaive is EventsFollowing by its definition: the naive pair
// enumeration filtered by gap.
func followingNaive(m *MetaIndex, kindA, kindB string, maxGap int) ([]EventPair, error) {
	all, err := m.EventsRelatedNaive(kindA, kindB)
	var out []EventPair
	for _, p := range all {
		if gap := p.B.Start - p.A.End; gap >= 0 && gap <= maxGap {
			out = append(out, p)
		}
	}
	return out, err
}

// TestEventsFollowingMatchesNaive cross-checks the windowed EventsFollowing
// against its definition: filter the full pair enumeration by gap.
func TestEventsFollowingMatchesNaive(t *testing.T) {
	m := randomEventIndex(t, 7, 4, 50)
	for _, tc := range []struct {
		kindA, kindB string
		maxGap       int
	}{
		{"service", "rally", 0},
		{"service", "rally", 10},
		{"net-play", "net-play", 25},
		{"rally", "service", 200},
	} {
		fast, err := m.EventsFollowing(tc.kindA, tc.kindB, tc.maxGap)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := followingNaive(m, tc.kindA, tc.kindB, tc.maxGap)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, naive) {
			t.Fatalf("%s→%s gap %d: windowed %d pairs, naive %d pairs (or order differs)",
				tc.kindA, tc.kindB, tc.maxGap, len(fast), len(naive))
		}
	}
}

// TestMetaIndexVersion locks the write-counter contract the serving-layer
// cache relies on: every mutation bumps it, reads don't.
func TestMetaIndexVersion(t *testing.T) {
	m, err := NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Version(); v != 0 {
		t.Fatalf("fresh index version = %d", v)
	}
	vid := m.AddVideo(Video{Name: "x", Frames: 10})
	if v := m.Version(); v != 1 {
		t.Fatalf("after AddVideo version = %d", v)
	}
	seg := m.AddSegment(Segment{VideoID: vid, Interval: Interval{0, 10}, Class: "tennis"})
	m.AddEvent(Event{VideoID: vid, SegmentID: seg, Kind: "rally", Interval: Interval{0, 5}})
	if v := m.Version(); v != 3 {
		t.Fatalf("after 3 writes version = %d", v)
	}
	if _, err := m.Scenes("rally"); err != nil {
		t.Fatal(err)
	}
	if v := m.Version(); v != 3 {
		t.Fatalf("read bumped version to %d", v)
	}
}
