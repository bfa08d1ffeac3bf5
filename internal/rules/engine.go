package rules

import (
	"fmt"
	"math"
	"sort"
)

// Geometry describes the court zones the rules reason over, in court
// coordinates: the pixels of the standard broadcast framing, which the
// original system hard-wired as its tournament's camera. The tennis
// detector registers every frame to that framing (track.Camera), so the
// zones describe the court, not whatever the camera shows.
type Geometry struct {
	// CourtX0, CourtY0, CourtX1, CourtY1 bound the playing surface.
	CourtX0, CourtY0, CourtX1, CourtY1 float64
	// NetY is the y coordinate of the net.
	NetY float64
	// NearBaseY and FarBaseY are the baseline y coordinates.
	NearBaseY, FarBaseY float64
	// NetDepth is the half-depth of the "at the net" zone.
	NetDepth float64
	// BaseDepth is the half-depth of the baseline zones.
	BaseDepth float64
}

// StandardGeometry is the court model for w×h frames: the court as the
// standard framing of that size shows it.
func StandardGeometry(w, h int) Geometry {
	x0 := float64(w) * 3 / 16
	x1 := float64(w) * 13 / 16
	y0 := float64(h) / 4
	y1 := float64(h) * 15 / 16
	courtH := y1 - y0
	return Geometry{
		CourtX0: x0, CourtY0: y0, CourtX1: x1, CourtY1: y1,
		NetY:      (y0 + y1) / 2,
		NearBaseY: y1 - courtH/10,
		FarBaseY:  y0 + courtH/10,
		NetDepth:  courtH * 0.18,
		BaseDepth: courtH * 0.14,
	}
}

// zone returns the named zone membership predicate.
func (g Geometry) zone(name string) (func(x, y float64) bool, bool) {
	switch name {
	case "court":
		return func(x, y float64) bool {
			return x >= g.CourtX0 && x <= g.CourtX1 && y >= g.CourtY0 && y <= g.CourtY1
		}, true
	case "netzone":
		return func(x, y float64) bool {
			return math.Abs(y-g.NetY) <= g.NetDepth
		}, true
	case "nearbase":
		return func(x, y float64) bool {
			return math.Abs(y-g.NearBaseY) <= g.BaseDepth
		}, true
	case "farbase":
		return func(x, y float64) bool {
			return math.Abs(y-g.FarBaseY) <= g.BaseDepth
		}, true
	case "nearhalf":
		return func(x, y float64) bool { return y > g.NetY }, true
	case "farhalf":
		return func(x, y float64) bool { return y < g.NetY }, true
	}
	return nil, false
}

// State is the per-frame state of one object as the rules see it.
type State struct {
	Found  bool
	X, Y   float64
	VX, VY float64
	Area   int
	// Orientation, Eccentricity and Aspect are shape features.
	Orientation, Eccentricity, Aspect float64
}

// Series maps object names (e.g. "near", "far") to frame-aligned state
// sequences. All sequences must have the same length: the shot length.
type Series map[string][]State

// Detection is one inferred event, with frame numbers relative to the
// series (shot-local).
type Detection struct {
	// Kind is the event name from the rule.
	Kind string
	// Start and End delimit the event, half-open.
	Start, End int
	// Object is the actor object name.
	Object string
	// Confidence is the fraction of the frames in [Start, End) with every
	// object found where the rule condition actually held (gaps tolerated
	// by maxGap lower it).
	Confidence float64
}

const (
	// maxGap merges condition runs separated by at most this many frames
	// where the condition fails, tolerating tracker glitches.
	maxGap = 4
	// speedWindow is the smoothing window (frames) of the speed attribute.
	speedWindow = 5
)

// Engine evaluates a rule set over object state series. A frame where an
// object a rule names is not found is unknown to that rule: it neither
// holds nor fails, so no event starts or ends on it and it does not count
// towards a gap.
type Engine struct {
	rules []Rule
	geom  Geometry
}

// NewEngine builds an engine; rules must use zones known to the geometry.
func NewEngine(rs []Rule, g Geometry) (*Engine, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("rules: engine needs at least one rule")
	}
	if err := Validate(rs, g); err != nil {
		return nil, err
	}
	return &Engine{rules: rs, geom: g}, nil
}

// evalCtx is the per-frame evaluation context.
type evalCtx struct {
	series Series
	speeds map[string][]float64
	frame  int
	geom   Geometry
}

func (c *evalCtx) state(obj string) (State, bool) {
	s, ok := c.series[obj]
	if !ok || c.frame >= len(s) {
		return State{}, false
	}
	return s[c.frame], true
}

// allFound reports whether every named object is tracked at the current
// frame; rule conditions never hold over missing objects.
func (c *evalCtx) allFound(objs []string) bool {
	for _, o := range objs {
		st, ok := c.state(o)
		if !ok || !st.Found {
			return false
		}
	}
	return true
}

func (c *evalCtx) speed(obj string) float64 {
	sp, ok := c.speeds[obj]
	if !ok || c.frame >= len(sp) {
		return 0
	}
	return sp[c.frame]
}

// smoothSpeeds precomputes windowed-mean speeds per object, over the
// frames of each window where the object is found.
func smoothSpeeds(series Series, window int) map[string][]float64 {
	out := make(map[string][]float64, len(series))
	for name, states := range series {
		sm := make([]float64, len(states))
		for i := range states {
			var sum float64
			n := 0
			for _, s := range states[max(i-window/2, 0):min(i+window/2+1, len(states))] {
				if s.Found {
					sum += math.Hypot(s.VX, s.VY)
					n++
				}
			}
			if n > 0 {
				sm[i] = sum / float64(n)
			}
		}
		out[name] = sm
	}
	return out
}

// A verdict is a rule's condition on one frame.
type verdict int8

const (
	// unknown: an object the rule names is not found.
	unknown verdict = iota
	fails
	holds
)

// Detect runs every rule over the series and returns all detections sorted
// by (start, kind). length is the shot length in frames; series shorter
// than length evaluate to "object missing" beyond their end.
func (e *Engine) Detect(series Series, length int) []Detection {
	ctx := &evalCtx{
		series: series,
		speeds: smoothSpeeds(series, speedWindow),
		geom:   e.geom,
	}
	var out []Detection
	for _, r := range e.rules {
		v := make([]verdict, length)
		for f := range v {
			ctx.frame = f
			switch {
			case !ctx.allFound(r.Objects):
				v[f] = unknown
			case r.Cond.eval(ctx):
				v[f] = holds
			default:
				v[f] = fails
			}
		}
		out = append(out, runsToDetections(r, v, maxGap)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// runsToDetections converts a per-frame verdict series into maximal runs
// of holding frames, merging gaps of at most maxGap failing frames and
// passing over unknown ones, and keeps runs of at least MinLen frames.
func runsToDetections(r Rule, v []verdict, maxGap int) []Detection {
	var out []Detection
	i := 0
	for i < len(v) {
		if v[i] != holds {
			i++
			continue
		}
		// Start of a run; extend across small gaps and unknown frames.
		start, end := i, i+1
		held, known := 1, 1
		gap := 0
		for j := i + 1; j < len(v) && gap <= maxGap; j++ {
			switch v[j] {
			case holds:
				end = j + 1
				held++
				known += gap + 1
				gap = 0
			case fails:
				gap++
			}
		}
		if end-start >= r.MinLen {
			out = append(out, Detection{
				Kind:  r.Kind,
				Start: start, End: end,
				Object:     r.Object,
				Confidence: float64(held) / float64(known),
			})
		}
		i = end
	}
	return out
}

// TennisRules is the standard tennis event rule set used by the demo,
// expressing the events named in the paper ("net-playing, rally, etc.")
// over the near player:
//
//   - net-play: the near player holds a position at the net.
//   - service: the near player stands nearly still at the baseline (the
//     service stance).
//   - rally: the near player moves laterally along the baseline.
func TennisRules() []Rule {
	return MustParse(`
# Net play: sustained presence in the net zone.
event net-play when in(near, netzone) for 8

# Service stance: motionless at the baseline.
event service when speed(near) < 0.8 and in(near, nearbase) for 8

# Baseline rally: sustained movement along the baseline.
event rally when speed(near) >= 0.8 and in(near, nearbase) for 12
`)
}
