package rules

import (
	"fmt"
	"math"
	"sort"
)

// Geometry describes the court zones the rules reason over. It mirrors the
// calibrated broadcast-camera geometry (the original system hard-wired the
// tournament's camera setup the same way).
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

// StandardGeometry derives the canonical geometry for a w×h frame, matching
// the fixed broadcast framing of the synthetic generator (see
// synth.CourtGeometry); the two must stay consistent.
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
	// Confidence is the fraction of frames in [Start, End) where the rule
	// condition actually held (gaps tolerated by MaxGap lower it).
	Confidence float64
}

// Engine evaluates a rule set over object state series.
type Engine struct {
	rules []Rule
	geom  Geometry
	// MaxGap merges condition runs separated by at most this many
	// non-holding frames, tolerating tracker glitches (default 4).
	MaxGap int
	// SpeedWindow is the smoothing window (frames) for the speed
	// attribute (default 5).
	SpeedWindow int
}

// NewEngine builds an engine; rules must use zones known to the geometry.
func NewEngine(rs []Rule, g Geometry) (*Engine, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("rules: engine needs at least one rule")
	}
	if err := Validate(rs, g); err != nil {
		return nil, err
	}
	return &Engine{rules: rs, geom: g, MaxGap: 4, SpeedWindow: 5}, nil
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

// smoothSpeeds precomputes windowed-mean speeds per object.
func smoothSpeeds(series Series, window int) map[string][]float64 {
	if window < 1 {
		window = 1
	}
	out := make(map[string][]float64, len(series))
	for name, states := range series {
		raw := make([]float64, len(states))
		for i, s := range states {
			raw[i] = math.Hypot(s.VX, s.VY)
		}
		sm := make([]float64, len(states))
		for i := range raw {
			lo := i - window/2
			if lo < 0 {
				lo = 0
			}
			hi := i + window/2 + 1
			if hi > len(raw) {
				hi = len(raw)
			}
			var sum float64
			for k := lo; k < hi; k++ {
				sum += raw[k]
			}
			sm[i] = sum / float64(hi-lo)
		}
		out[name] = sm
	}
	return out
}

// Detect runs every rule over the series and returns all detections sorted
// by (start, kind). length is the shot length in frames; series shorter
// than length evaluate to "object missing" beyond their end.
func (e *Engine) Detect(series Series, length int) []Detection {
	ctx := &evalCtx{
		series: series,
		speeds: smoothSpeeds(series, e.SpeedWindow),
		geom:   e.geom,
	}
	var out []Detection
	for _, r := range e.rules {
		holds := make([]bool, length)
		for f := 0; f < length; f++ {
			ctx.frame = f
			holds[f] = ctx.allFound(r.Objects) && r.Cond.eval(ctx)
		}
		out = append(out, runsToDetections(r, holds, e.MaxGap)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// runsToDetections converts a per-frame condition series into maximal runs,
// merging gaps of at most maxGap frames, and keeps runs of at least MinLen.
func runsToDetections(r Rule, holds []bool, maxGap int) []Detection {
	var out []Detection
	i := 0
	for i < len(holds) {
		if !holds[i] {
			i++
			continue
		}
		// Start of a run; extend across small gaps.
		start := i
		end := i + 1
		held := 1
		gap := 0
		for j := i + 1; j < len(holds); j++ {
			if holds[j] {
				end = j + 1
				held++
				gap = 0
			} else {
				gap++
				if gap > maxGap {
					break
				}
			}
		}
		if end-start >= r.MinLen {
			out = append(out, Detection{
				Kind:  r.Kind,
				Start: start, End: end,
				Object:     r.Object,
				Confidence: float64(held) / float64(end-start),
			})
		}
		i = end + maxGap
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
