package core

import (
	"fmt"
	"sync"
)

// Frozen columnar read path for the event/scene tables.
//
// The reference path answers `Scenes(kind)` by a scan of the events table
// and a videos scan per event — on every query. The frozen view does that
// work once per index state: events are grouped by kind, and videos are
// pre-joined into per-kind scene runs. After the build, every read-path
// query is a slice copy with zero table scans.
//
// Freshness: every write drops the slot, and the next read installs a fresh
// one. The slot lives behind an atomic pointer with a sync.Once guarding
// the build, so concurrent readers agree on a single build. Writes never
// race reads: only a private builder writes a MetaIndex, and a served one
// is never written again.
//
// Determinism invariants, locked by TestFrozenViewMatchesReference:
//   - kindView.events is the events-table row order filtered by kind —
//     identical to the ascending row order of ScenesReference's scan.
//   - kindView.scenes joins each event with its video in that same order;
//     a missing video is recorded as sceneErr at the first offender, exactly
//     where the reference join would have failed.

// kindView is one kind's frozen column run.
type kindView struct {
	// events holds the kind's events in events-table row order.
	events []Event
	// scenes is events pre-joined with videos; nil when sceneErr is set.
	scenes []Scene
	// sceneErr is the join error ScenesReference would return, if any.
	sceneErr error
}

// metaView is a complete frozen snapshot of the event/scene read path.
type metaView struct {
	videosByID map[int64]Video
	kinds      map[string]*kindView
}

// viewSlot holds a built (or building) view.
type viewSlot struct {
	once sync.Once
	view *metaView
}

// frozenView returns the view of the index as it stands, building it at
// most once across all concurrent readers.
func (m *MetaIndex) frozenView() *metaView {
	slot := m.viewSlot.Load()
	if slot == nil {
		// Of readers racing here, the first CAS wins and the rest load it.
		m.viewSlot.CompareAndSwap(nil, &viewSlot{})
		slot = m.viewSlot.Load()
	}
	slot.once.Do(func() {
		slot.view = m.buildView()
		m.viewBuilds.Add(1)
	})
	return slot.view
}

// ViewBuilds returns how many times the frozen view has been (re)built —
// the observability hook behind dl_sceneview_builds_total.
func (m *MetaIndex) ViewBuilds() int64 { return m.viewBuilds.Load() }

// buildView groups the videos and events tables once into the columnar
// snapshot. Join misses are recorded per kind so they surface exactly like
// the reference path.
func (m *MetaIndex) buildView() *metaView {
	v := &metaView{
		videosByID: make(map[int64]Video, len(m.videos)),
		kinds:      map[string]*kindView{},
	}
	for _, vid := range m.videos {
		if _, dup := v.videosByID[vid.ID]; !dup {
			// First row wins, matching VideoByID's scan.
			v.videosByID[vid.ID] = vid
		}
	}
	for _, e := range m.events {
		kv := v.kinds[e.Kind]
		if kv == nil {
			kv = &kindView{}
			v.kinds[e.Kind] = kv
		}
		kv.events = append(kv.events, e)
	}
	for _, kv := range v.kinds {
		kv.scenes = make([]Scene, 0, len(kv.events))
		for _, e := range kv.events {
			vid, ok := v.videosByID[e.VideoID]
			if !ok {
				kv.scenes, kv.sceneErr = nil, fmt.Errorf("core: no video with id %d", e.VideoID)
				break
			}
			kv.scenes = append(kv.scenes, Scene{Video: vid, Event: e})
		}
	}
	return v
}
