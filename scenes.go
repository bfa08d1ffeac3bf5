package repro

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/vidfmt"
)

// EventPair is a composite-query answer: two events in a temporal relation.
type EventPair = core.EventPair

// AllenRelation names a temporal relation between intervals.
type AllenRelation = core.AllenRelation

// Allen relations usable with ScenesRelated.
const (
	RelBefore   = core.RelBefore
	RelMeets    = core.RelMeets
	RelOverlaps = core.RelOverlaps
	RelStarts   = core.RelStarts
	RelDuring   = core.RelDuring
	RelFinishes = core.RelFinishes
	RelEquals   = core.RelEquals
	RelContains = core.RelContains
	RelAfter    = core.RelAfter
)

// ScenesRelated answers composite temporal queries over the event layer:
// pairs of events of the two kinds standing in one of the wanted Allen
// relations within the same video (e.g. net-play During rally).
func (l *Library) ScenesRelated(kindA, kindB string, rels ...AllenRelation) ([]EventPair, error) {
	return l.View().EventsRelated(kindA, kindB, rels...)
}

// ScenesFollowing returns kindB events starting within maxGap frames after
// a kindA event ends (e.g. rally following a service).
func (l *Library) ScenesFollowing(kindA, kindB string, maxGap int) ([]EventPair, error) {
	return l.View().EventsFollowing(kindA, kindB, maxGap)
}

// ExtractScene decodes the frames of a scene from its source video: only
// the scene's interval, rolled forward from the I-frame that governs its
// first frame, never the whole video. The scene's video must have been
// indexed from an SVF file (Path set); for frame-indexed videos pass the
// frames explicitly to ExtractSceneFrames.
func (l *Library) ExtractScene(s Scene) ([]*Image, error) {
	if s.Video.Path == "" {
		return nil, fmt.Errorf("repro: video %q has no file path; use ExtractSceneFrames", s.Video.Name)
	}
	f, err := os.Open(s.Video.Path)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	defer f.Close() // only read
	r, err := vidfmt.OpenReader(f)
	if err != nil {
		return nil, err
	}
	if err := checkSceneInterval(s, r.Meta().Frames); err != nil {
		return nil, err
	}
	return r.Frames(s.Event.Start, s.Event.End)
}

// ExtractSceneFrames cuts a scene's interval out of the supplied decoded
// frames of its video.
func ExtractSceneFrames(s Scene, frames []*Image) ([]*Image, error) {
	if err := checkSceneInterval(s, len(frames)); err != nil {
		return nil, err
	}
	out := make([]*Image, s.Event.Len())
	copy(out, frames[s.Event.Start:s.Event.End])
	return out, nil
}

// checkSceneInterval refuses a scene interval that is empty or reaches
// outside a video of n frames.
func checkSceneInterval(s Scene, n int) error {
	if iv := s.Event.Interval; iv.Start < 0 || iv.End > n || iv.Empty() {
		return fmt.Errorf("repro: scene interval %v outside video of %d frames", iv, n)
	}
	return nil
}

// SaveScene writes a scene's frames to an SVF file, a playable clip
// answering "show me video scenes ...".
func (l *Library) SaveScene(s Scene, path string) error {
	frames, err := l.ExtractScene(s)
	if err != nil {
		return err
	}
	fps := s.Video.FPS
	if fps <= 0 {
		fps = 25
	}
	return vidfmt.WriteFile(path, frames, fps, 0)
}
