package core

import (
	"fmt"
	"sync"
)

// Frozen columnar read path for the event/scene tables.
//
// The reference path answers `Scenes(kind)` by a scan of the events table
// and a videos scan per event — on every query. The frozen view does that
// work once per index version: events are grouped by kind, and videos are
// pre-joined into per-kind scene runs. After the build, every read-path
// query is a slice copy with zero table scans.
//
// Freshness follows the existing write counter: a view is tagged with the
// Version() it was built at, and the accessor discards it the moment the
// version moves. The slot lives behind an atomic pointer with a sync.Once
// guarding the build, so concurrent readers racing a rebuild agree on a
// single build per version (the serving path's reader-only contract makes
// this safe against live Commit/Swap, which install whole new segments and
// never mutate a served MetaIndex).
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

// viewSlot pairs a built (or building) view with the version it belongs to.
type viewSlot struct {
	version int64
	once    sync.Once
	view    *metaView
}

// frozenView returns the view for the current version, building it at most
// once per version across all concurrent readers.
func (m *MetaIndex) frozenView() *metaView {
	for {
		cur := m.version.Load()
		slot := m.viewSlot.Load()
		if slot == nil || slot.version != cur {
			fresh := &viewSlot{version: cur}
			if !m.viewSlot.CompareAndSwap(slot, fresh) {
				continue // another reader installed a slot; re-examine it
			}
			slot = fresh
		}
		slot.once.Do(func() {
			slot.view = m.buildView()
			m.viewBuilds.Add(1)
		})
		return slot.view
	}
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
