package fde

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/grammar"
	"repro/internal/rules"
	"repro/internal/shotdet"
	"repro/internal/track"
)

// TennisEvent is one event inferred by the tennis FDE, with absolute frame
// numbers in the video.
type TennisEvent struct {
	// ShotIdx is the index of the containing shot in the "shots" symbol.
	ShotIdx int
	// Kind is the event name ("net-play", "rally", "service").
	Kind string
	// Start and End are absolute frame numbers, half-open.
	Start, End int
	// Object is the actor ("near" or "far").
	Object string
	// Confidence is the rule engine confidence.
	Confidence float64
}

// TennisConfig holds the one setting of the tennis FDE that callers
// choose; every detector's tuning is a constant of its package.
type TennisConfig struct {
	// SegmentImpl optionally replaces the in-process segment detector,
	// e.g. with a black-box adapter over cmd/segdet (see BlackBoxSegment).
	SegmentImpl Impl
}

// DefaultTennisConfig returns the standard configuration: the in-process
// segment detector.
func DefaultTennisConfig() TennisConfig {
	return TennisConfig{}
}

// NewTennisEngine compiles the tennis feature grammar (Figure 1) and binds
// the detector implementations: the segment detector, the tennis
// player-tracking detector and the three event-rule detectors.
func NewTennisEngine(cfg TennisConfig) (*Engine, error) {
	e, err := New(grammar.Tennis())
	if err != nil {
		return nil, err
	}
	segImpl := cfg.SegmentImpl
	if segImpl == nil {
		segImpl = whiteBoxSegment
	}
	if err := e.Bind("segment", segImpl); err != nil {
		return nil, err
	}
	if err := e.Bind("tennis", tennisDetector); err != nil {
		return nil, err
	}
	for _, b := range []struct{ det, kind string }{
		{"netplay", "net-play"}, {"rally", "rally"}, {"service", "service"},
	} {
		if err := e.Bind(b.det, eventDetector(b.det, b.kind)); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// whiteBoxSegment is the in-process segment detector: shot boundaries plus
// classification, published as the "shots" and "classes" symbols. Each
// frame's histogram is computed over ctx.Workers goroutines.
func whiteBoxSegment(ctx *Context) error {
	sw := shotdet.Sweeper{Workers: ctx.Workers}
	shots, err := sw.SegmentAndClassify(ctx.Frames)
	if err != nil {
		return err
	}
	ctx.Hold(sw.Held())
	classes := make([]string, len(shots))
	for i, s := range shots {
		classes[i] = s.Class.String()
	}
	ctx.Set("shots", shots)
	ctx.Set("classes", classes)
	return nil
}

// tennisDetector tracks the players within every shot classified "tennis"
// (the grammar guard), scanning each such shot from the source one frame at
// a time, and publishes per-shot tracking results and the rule state
// series.
func tennisDetector(ctx *Context) error {
	shotsV, _ := ctx.Get("shots")
	shots, ok := shotsV.([]shotdet.Shot)
	if !ok {
		return fmt.Errorf("symbol shots has type %T", shotsV)
	}
	players := map[int]track.ShotResult{}
	trajectories := map[int]rules.Series{}
	shapes := map[int][]frame.Shape{}
	var tr track.ShotTracker
	for i, s := range shots {
		if s.Class != shotdet.ClassTennis {
			continue // guard: class==tennis
		}
		res, err := tr.TrackShot(ctx.Frames, s.Start, s.End)
		if err != nil {
			return err
		}
		players[i] = res
		trajectories[i] = TrackToSeries(res)
		var shp []frame.Shape
		for _, o := range res.Near.Obs {
			shp = append(shp, o.Shape)
		}
		shapes[i] = shp
	}
	ctx.Set("players", players)
	ctx.Set("trajectories", trajectories)
	ctx.Set("shapes", shapes)
	return nil
}

// eventDetector evaluates the rules.TennisRules of the given kind over
// every tennis shot's trajectories, publishing []TennisEvent under the
// detector's produced symbol (event_netplay, event_rally, event_service).
func eventDetector(det, kind string) Impl {
	symbol := "event_" + det
	var ruleSet []rules.Rule
	for _, r := range rules.TennisRules() {
		if r.Kind == kind {
			ruleSet = append(ruleSet, r)
		}
	}
	return func(ctx *Context) error {
		trajV, _ := ctx.Get("trajectories")
		trajectories, ok := trajV.(map[int]rules.Series)
		if !ok {
			return fmt.Errorf("symbol trajectories has type %T", trajV)
		}
		shotsV, _ := ctx.Get("shots")
		shots, ok := shotsV.([]shotdet.Shot)
		if !ok {
			return fmt.Errorf("symbol shots has type %T", shotsV)
		}
		geom := rules.StandardGeometry(ctx.Video.Width, ctx.Video.Height)
		eng, err := rules.NewEngine(ruleSet, geom)
		if err != nil {
			return err
		}
		events := []TennisEvent{}
		// Iterate shots in index order so event order — and therefore
		// assigned event IDs and serialized row order — is deterministic.
		shotIdxs := make([]int, 0, len(trajectories))
		for shotIdx := range trajectories {
			shotIdxs = append(shotIdxs, shotIdx)
		}
		sort.Ints(shotIdxs)
		for _, shotIdx := range shotIdxs {
			series := trajectories[shotIdx]
			s := shots[shotIdx]
			for _, d := range eng.Detect(series, s.Len()) {
				events = append(events, TennisEvent{
					ShotIdx: shotIdx, Kind: d.Kind,
					Start: s.Start + d.Start, End: s.Start + d.End,
					Object: d.Object, Confidence: d.Confidence,
				})
			}
		}
		ctx.Set(symbol, events)
		return nil
	}
}

// TrackToSeries converts tennis-detector output into the state series the
// rule engine consumes, in court coordinates: each position and velocity is
// mapped through the camera of its frame (track.ShotResult.Camera), so the
// rules read the court the standard framing shows whatever the camera did.
func TrackToSeries(res track.ShotResult) rules.Series {
	conv := func(tr track.Track) []rules.State {
		out := make([]rules.State, len(tr.Obs))
		prev := res.Camera(0)
		for i, o := range tr.Obs {
			cam := res.Camera(i)
			x, y := cam.Court(o.X, o.Y)
			vx, vy := cam.Velocity(prev, o.X, o.Y, o.VX, o.VY)
			out[i] = rules.State{
				Found: o.Found, X: x, Y: y, VX: vx, VY: vy,
				Area: o.Shape.Area, Orientation: o.Shape.Orientation,
				Eccentricity: o.Shape.Eccentricity, Aspect: o.Shape.AspectRatio(),
			}
			prev = cam
		}
		return out
	}
	return rules.Series{"near": conv(res.Near), "far": conv(res.Far)}
}

// IndexResult materializes a tennis parse into the meta-index: segments,
// objects with their per-frame states, and events. It returns the assigned
// video ID.
func IndexResult(res *Result, idx *core.MetaIndex) (int64, error) {
	vid := idx.AddVideo(res.Video)
	shotsV, ok := res.Get("shots")
	if !ok {
		return 0, fmt.Errorf("fde: result has no shots symbol")
	}
	shots, ok := shotsV.([]shotdet.Shot)
	if !ok {
		return 0, fmt.Errorf("fde: shots symbol has type %T", shotsV)
	}
	segIDs := make([]int64, len(shots))
	for i, s := range shots {
		segIDs[i] = idx.AddSegment(core.Segment{
			VideoID:  vid,
			Interval: core.Interval{Start: s.Start, End: s.End},
			Class:    s.Class.String(),
		})
	}
	// Objects and states.
	objIDs := map[int]map[string]int64{} // shotIdx -> role -> objectID
	if playersV, ok := res.Get("players"); ok {
		players, ok := playersV.(map[int]track.ShotResult)
		if !ok {
			return 0, fmt.Errorf("fde: players symbol has type %T", playersV)
		}
		// Shot order, then near before far: object and state IDs must be
		// assigned in a reproducible order for Serialize to be deterministic.
		shotIdxs := make([]int, 0, len(players))
		for shotIdx := range players {
			shotIdxs = append(shotIdxs, shotIdx)
		}
		sort.Ints(shotIdxs)
		for _, shotIdx := range shotIdxs {
			pr := players[shotIdx]
			s := shots[shotIdx]
			objIDs[shotIdx] = map[string]int64{}
			for _, rt := range []struct {
				role string
				tr   track.Track
			}{{"near", pr.Near}, {"far", pr.Far}} {
				role, tr := rt.role, rt.tr
				if len(tr.Obs) == 0 {
					continue
				}
				oid := idx.AddObject(core.Object{
					VideoID: vid, SegmentID: segIDs[shotIdx],
					Name:     "player-" + role,
					Interval: core.Interval{Start: s.Start, End: s.End},
				})
				objIDs[shotIdx][role] = oid
				for _, o := range tr.Obs {
					idx.AddState(core.ObjectState{
						ObjectID: oid, Frame: s.Start + o.Frame, Found: o.Found,
						X: o.X, Y: o.Y, VX: o.VX, VY: o.VY,
						Area:        o.Shape.Area,
						BBox:        [4]int{o.Shape.BBox.X0, o.Shape.BBox.Y0, o.Shape.BBox.X1, o.Shape.BBox.Y1},
						Orientation: o.Shape.Orientation, Eccentricity: o.Shape.Eccentricity,
					})
				}
			}
		}
	}
	// Events from all three event symbols.
	for _, sym := range []string{"event_netplay", "event_rally", "event_service"} {
		evV, ok := res.Get(sym)
		if !ok {
			continue
		}
		evs, ok := evV.([]TennisEvent)
		if !ok {
			return 0, fmt.Errorf("fde: %s symbol has type %T", sym, evV)
		}
		for _, ev := range evs {
			var actor int64
			if m := objIDs[ev.ShotIdx]; m != nil {
				actor = m[ev.Object]
			}
			idx.AddEvent(core.Event{
				VideoID: vid, SegmentID: segIDs[ev.ShotIdx], Kind: ev.Kind,
				Interval: core.Interval{Start: ev.Start, End: ev.End},
				ActorID:  actor, Confidence: ev.Confidence,
			})
		}
	}
	return vid, nil
}
