package core

import (
	"fmt"
	"sync/atomic"
)

// Frozen columnar read path for the event/scene tables.
//
// The reference path answers `Scenes(kind)` by a scan of the events table
// and a videos scan per event — on every query. The frozen view does that
// work once per Part: events are grouped by kind, and videos are pre-joined
// into per-kind scene runs. After the build, every read-path query is a
// slice copy with zero table scans.
//
// Freshness: a Part has no write method, so its view is built at the first
// read, under the Part's sync.Once, and never dropped. Concurrent first
// readers share the one build.
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

// viewBuilds counts the scene views this process has built.
var viewBuilds atomic.Int64

// ViewBuilds returns how many scene views the process has built, across
// every Part — the count behind dl_sceneview_builds_total, which therefore
// never falls.
func ViewBuilds() int64 { return viewBuilds.Load() }

// frozenView returns the part's view, building it at the first read.
func (p *Part) frozenView() *metaView {
	p.once.Do(func() {
		p.view.Store(buildView(&p.tableSet))
		viewBuilds.Add(1)
	})
	return p.view.Load()
}

// buildView groups the videos and events tables once into the columnar
// snapshot. Join misses are recorded per kind so they surface exactly like
// the reference path.
func buildView(t *tableSet) *metaView {
	v := &metaView{
		videosByID: make(map[int64]Video, len(t.videos)),
		kinds:      map[string]*kindView{},
	}
	for _, vid := range t.videos {
		if _, dup := v.videosByID[vid.ID]; !dup {
			// First row wins, matching VideoByID's scan.
			v.videosByID[vid.ID] = vid
		}
	}
	for _, e := range t.events {
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
