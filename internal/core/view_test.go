package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/segset"
)

// randomEventIndex freezes an index populated with a seeded pseudo-random
// event layout: several videos, several kinds, heavy interval overlap.
func randomEventIndex(t testing.TB, seed int64, videos, eventsPerVideo int) *Part {
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
	return m.Freeze()
}

// sameErr asserts two errors agree in presence and text: the frozen read
// path must reproduce the row-store path's error behaviour exactly, not
// just its success behaviour.
func sameErr(t *testing.T, label string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: err = %v, reference err = %v", label, got, want)
	}
	if got != nil && got.Error() != want.Error() {
		t.Fatalf("%s: err %q, reference err %q", label, got, want)
	}
}

// TestFrozenViewMatchesReference locks every frozen-view query form to its
// oracle — the retained row-store read — byte for byte (reflect.DeepEqual
// covers ordering, nil-vs-empty, and field values), on an adversarial
// random corpus.
func TestFrozenViewMatchesReference(t *testing.T) {
	m := randomEventIndex(t, 99, 6, 80)

	kinds := []string{"rally", "net-play", "service", "absent-kind"}
	for _, k := range kinds {
		gotS, errS := m.Scenes(k)
		wantS, wantErrS := m.ScenesReference(k)
		sameErr(t, "Scenes("+k+")", errS, wantErrS)
		if !reflect.DeepEqual(gotS, wantS) {
			t.Fatalf("Scenes(%q) = %d scenes, reference %d: %v vs %v", k, len(gotS), len(wantS), gotS, wantS)
		}
	}
}

// chainedParts builds nseg ID-chained partitions with a random event layout,
// the same construction Library.Commit produces.
func chainedParts(t *testing.T, nseg int) ([]*Part, []SegmentMeta) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(300 + nseg)))
	kinds := []string{"rally", "net-play", "service"}
	parts := make([]*Part, nseg)
	metas := make([]SegmentMeta, nseg)
	var base IDBase
	for i := 0; i < nseg; i++ {
		m := NewMetaIndexAt(base)
		for v := 0; v < 4; v++ {
			vid := m.AddVideo(Video{Name: fmt.Sprintf("p%d-v%d", i, v), Frames: 1000})
			seg := m.AddSegment(Segment{VideoID: vid, Interval: Interval{0, 1000}, Class: "tennis"})
			for e := 0; e < 30; e++ {
				start := rng.Intn(900)
				ev := Event{
					VideoID: vid, SegmentID: seg,
					Kind:     kinds[rng.Intn(len(kinds))],
					Interval: Interval{Start: start, End: start + rng.Intn(120)},
				}
				m.AddEvent(ev)
			}
		}
		parts[i] = m.Freeze()
		metas[i] = SegmentMeta{ID: int64(i + 1), Base: base}
		base = m.IDState()
	}
	return parts, metas
}

// TestFrozenViewSegmentedMatchesReference repeats the parity check through
// the SegmentedIndex scatter path at 1, 2 and 3 partitions, against each
// oracle's answers concatenated in partition order.
func TestFrozenViewSegmentedMatchesReference(t *testing.T) {
	for _, nseg := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("segs=%d", nseg), func(t *testing.T) {
			parts, metas := chainedParts(t, nseg)
			si, err := NewSegmentedIndex(parts, metas, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"rally", "net-play", "service", "absent"} {
				gotS, errS := si.Scenes(k)
				wantS, wantErrS := segset.Gather(si.parts, func(p *Part) ([]Scene, error) { return p.ScenesReference(k) })
				sameErr(t, "Scenes("+k+")", errS, wantErrS)
				if !reflect.DeepEqual(gotS, wantS) {
					t.Fatalf("Scenes(%q) diverges across %d segments", k, nseg)
				}
			}
		})
	}
}

// TestFrozenViewMissingVideoErrors locks the dangling-video error contract:
// same error text, raised at the same (first, in kind row order) offending
// event as the reference path.
func TestFrozenViewMissingVideoErrors(t *testing.T) {
	m, err := NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	vid := m.AddVideo(Video{Name: "good", Frames: 100})
	seg := m.AddSegment(Segment{VideoID: vid, Interval: Interval{0, 100}, Class: "tennis"})
	// First rally event dangles; a later one is fine. The error must name
	// the first dangling video.
	for _, e := range []Event{
		{VideoID: vid + 7, SegmentID: seg, Kind: "rally", Interval: Interval{0, 5}},
		{VideoID: vid + 9, SegmentID: seg, Kind: "rally", Interval: Interval{5, 9}},
		{VideoID: vid, SegmentID: seg, Kind: "rally", Interval: Interval{10, 20}},
		{VideoID: vid, SegmentID: seg, Kind: "net-play", Interval: Interval{12, 15}},
	} {
		m.AddEvent(e)
	}
	p := m.Freeze()

	_, gotErr := p.Scenes("rally")
	_, wantErr := p.ScenesReference("rally")
	sameErr(t, "Scenes with dangling video", gotErr, wantErr)
	if gotErr == nil {
		t.Fatal("Scenes with dangling video: expected error")
	}
	if want := fmt.Sprintf("core: no video with id %d", vid+7); gotErr.Error() != want {
		t.Fatalf("Scenes err = %q, want %q", gotErr, want)
	}

	// The clean kind on the same index still answers.
	if _, err := p.Scenes("net-play"); err != nil {
		t.Fatalf("Scenes(net-play) on same index: %v", err)
	}
}

// TestFrozenViewHotPathAllocs pins the hot-path cost: the first read builds
// the view once, and with the view built, Scenes of any kind builds nothing
// and allocates only the defensive result copy.
func TestFrozenViewHotPathAllocs(t *testing.T) {
	m := randomEventIndex(t, 5, 4, 40)
	b0 := ViewBuilds()
	if _, err := m.Scenes("rally"); err != nil { // build the view
		t.Fatal(err)
	}
	scenes := testing.AllocsPerRun(100, func() {
		if _, err := m.Scenes("rally"); err != nil {
			t.Fatal(err)
		}
	})
	if scenes > 1.5 {
		t.Fatalf("hot Scenes allocates %.1f objects/op, want <= 1 (result copy)", scenes)
	}
	for _, kind := range []string{"service", "net-play", "absent"} {
		if _, err := m.Scenes(kind); err != nil {
			t.Fatal(err)
		}
	}
	if n := ViewBuilds() - b0; n != 1 {
		t.Fatalf("first and hot reads built %d views, want 1", n)
	}
}

// TestFrozenViewConcurrentFirstReads: readers racing to a fresh Part's first
// Scenes share one build and all see the reference answer (run under -race).
func TestFrozenViewConcurrentFirstReads(t *testing.T) {
	m := randomEventIndex(t, 8, 4, 40)
	want, err := m.ScenesReference("rally")
	if err != nil {
		t.Fatal(err)
	}
	b0 := ViewBuilds()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := m.Scenes("rally"); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent first read: %d scenes, %v", len(got), err)
			}
		}()
	}
	wg.Wait()
	if n := ViewBuilds() - b0; n != 1 {
		t.Fatalf("%d views built by concurrent first reads, want 1", n)
	}
}
