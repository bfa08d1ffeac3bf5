// Package synth generates synthetic tennis-broadcast video with exact
// ground truth. It substitutes for the Australian Open match footage used
// by the original system (see DESIGN.md §2): the generator produces the
// pixel-level phenomena the COBRA detectors key on — colour-histogram
// discontinuities at shot cuts, a dominant court colour in playing shots,
// skin-coloured regions in close-ups, high-entropy texture in audience
// shots, and a moving player blob with a scripted trajectory — together
// with the ground-truth labels (shot boundaries, shot classes, player
// positions, event intervals) needed to score every experiment.
package synth

import (
	"fmt"
	"math/rand"

	"repro/internal/frame"
)

// ShotClass is the category assigned to a shot, matching the four classes
// of the paper's segment detector.
type ShotClass int

// Shot classes. The paper classifies shots into exactly these four.
const (
	ClassOther ShotClass = iota
	ClassTennis
	ClassCloseUp
	ClassAudience
)

// String returns the lowercase class name.
func (c ShotClass) String() string {
	switch c {
	case ClassTennis:
		return "tennis"
	case ClassCloseUp:
		return "close-up"
	case ClassAudience:
		return "audience"
	default:
		return "other"
	}
}

// EventKind identifies a scripted (and detectable) tennis event.
type EventKind string

// Event kinds produced by the shot scripts. These match the examples in
// the paper ("net-playing, rally, etc.").
const (
	EventRally   EventKind = "rally"
	EventNetPlay EventKind = "net-play"
	EventService EventKind = "service"
)

// Point is a pixel-space position.
type Point struct {
	X, Y float64
}

// ShotTruth is the ground truth for one shot.
type ShotTruth struct {
	// Start and End delimit the shot's frames, half-open [Start, End).
	Start, End int
	// Class is the true shot class.
	Class ShotClass
	// Script names the motion script used for tennis shots ("" otherwise).
	Script string
	// NearPlayer holds the per-frame centre of the near player's body for
	// tennis shots (len == End-Start); nil otherwise.
	NearPlayer []Point
	// FarPlayer is the far player's per-frame centre for tennis shots.
	FarPlayer []Point
}

// Len returns the number of frames in the shot.
func (s ShotTruth) Len() int { return s.End - s.Start }

// EventTruth is the ground truth for one scripted event.
type EventTruth struct {
	// Shot is the index of the containing shot in GroundTruth.Shots.
	Shot int
	// Kind is the event type.
	Kind EventKind
	// Start and End delimit the event's frames (absolute, half-open).
	Start, End int
	// Player is 0 for the near player, 1 for the far player.
	Player int
}

// GroundTruth aggregates all labels for a generated video.
type GroundTruth struct {
	Shots  []ShotTruth
	Events []EventTruth
}

// Boundaries returns the frame indices at which a new shot starts,
// excluding frame 0.
func (g GroundTruth) Boundaries() []int {
	var b []int
	for _, s := range g.Shots[1:] {
		b = append(b, s.Start)
	}
	return b
}

// Video is a generated clip plus its ground truth.
type Video struct {
	Frames []*frame.Image
	Truth  GroundTruth
	W, H   int
	FPS    int
}

// Config parameterizes the generator. The zero value is not valid; use
// DefaultConfig as a starting point.
type Config struct {
	// W, H are the frame dimensions.
	W, H int
	// FPS is the nominal frame rate.
	FPS int
	// Seed drives all randomness; equal seeds give identical videos.
	Seed int64
	// Noise is the per-channel uniform pixel noise amplitude (0 disables).
	Noise int
	// Shots is the number of shots to generate.
	Shots int
	// MinShotLen and MaxShotLen bound the per-shot frame counts.
	MinShotLen, MaxShotLen int
}

// DefaultConfig returns a small, fast configuration: quarter-PAL-ish
// 160x120 at 25 fps with mild sensor noise.
func DefaultConfig(seed int64) Config {
	return Config{
		W: 160, H: 120, FPS: 25,
		Seed: seed, Noise: 4,
		Shots: 12, MinShotLen: 20, MaxShotLen: 60,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.W < 64 || c.H < 48 {
		return fmt.Errorf("synth: frame size %dx%d too small (min 64x48)", c.W, c.H)
	}
	if c.Shots <= 0 {
		return fmt.Errorf("synth: need at least one shot, got %d", c.Shots)
	}
	if c.MinShotLen < 8 || c.MaxShotLen < c.MinShotLen {
		return fmt.Errorf("synth: invalid shot length range [%d,%d]", c.MinShotLen, c.MaxShotLen)
	}
	return nil
}

// Generate renders a full broadcast-style video: a sequence of shots drawn
// from a typical pattern (tennis shots interleaved with close-ups, audience
// reactions and miscellaneous footage), with hard cuts between shots.
func Generate(cfg Config) (*Video, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	v := &Video{W: cfg.W, H: cfg.H, FPS: cfg.FPS}
	geom := CourtGeometry(cfg.W, cfg.H)

	// Broadcast pattern: play alternates with reaction footage. A tennis
	// shot is always followed by a different class (two consecutive court
	// shots from the same fixed camera would be visually seamless and no
	// histogram method could see the cut), and any non-tennis shot cuts
	// back to play, as a real director does.
	classAfterTennis := []ShotClass{ClassCloseUp, ClassAudience, ClassOther, ClassCloseUp}
	prev := ClassOther
	for si := 0; si < cfg.Shots; si++ {
		var class ShotClass
		switch {
		case si == 0, prev != ClassTennis:
			class = ClassTennis
		default:
			class = classAfterTennis[rng.Intn(len(classAfterTennis))]
		}
		n := cfg.MinShotLen + rng.Intn(cfg.MaxShotLen-cfg.MinShotLen+1)
		start := len(v.Frames)
		shot := ShotTruth{Start: start, End: start + n, Class: class}
		switch class {
		case ClassTennis:
			script := pickScript(rng)
			frames, near, far, events := renderTennisShot(rng, cfg, geom, script, n)
			shot.Script = script.name
			shot.NearPlayer, shot.FarPlayer = near, far
			v.Frames = append(v.Frames, frames...)
			for _, e := range events {
				e.Shot = len(v.Truth.Shots)
				e.Start += start
				e.End += start
				v.Truth.Events = append(v.Truth.Events, e)
			}
		case ClassCloseUp:
			v.Frames = append(v.Frames, renderCloseUpShot(rng, cfg, n)...)
		case ClassAudience:
			v.Frames = append(v.Frames, renderAudienceShot(rng, cfg, n)...)
		default:
			v.Frames = append(v.Frames, renderOtherShot(rng, cfg, n)...)
		}
		v.Truth.Shots = append(v.Truth.Shots, shot)
		prev = class
	}
	return v, nil
}

// GenerateCorpus produces count independent videos with seeds derived from
// base seed; video i uses seed seed+i.
func GenerateCorpus(cfg Config, count int) ([]*Video, error) {
	if count <= 0 {
		return nil, fmt.Errorf("synth: corpus size must be positive, got %d", count)
	}
	vids := make([]*Video, count)
	for i := range vids {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		v, err := Generate(c)
		if err != nil {
			return nil, fmt.Errorf("synth: corpus video %d: %w", i, err)
		}
		vids[i] = v
	}
	return vids, nil
}
